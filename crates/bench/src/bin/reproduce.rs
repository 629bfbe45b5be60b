//! Regenerates the paper's evaluation tables in simulated time.
//!
//! Usage:
//!
//! ```text
//! reproduce [--seed N] [--quick] [e1 .. e8 p1 a1]
//! ```
//!
//! With no experiment named, every table prints (`reproduce_output.md` is
//! that report at seed 42). `--quick` shrinks E4's trials and E7's fleet
//! sizes and leaves the A1 sweep out of the whole report; a named `a1` still
//! runs. Bad arguments print usage and exit with status 2.

use std::env;

use dcdo_bench::experiments::{render, render_with, EXPERIMENTS};

/// What the command line asked for.
#[derive(Debug, PartialEq)]
struct Args {
    seed: u64,
    quick: bool,
    /// The named experiment ids, lower-cased; empty means the whole report.
    named: Vec<String>,
}

fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        seed: 42,
        quick: false,
        named: Vec::new(),
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                let value = args.next().ok_or("--seed needs a value")?;
                parsed.seed = value
                    .parse()
                    .map_err(|_| format!("--seed takes an unsigned integer, got {value:?}"))?;
            }
            "--quick" => parsed.quick = true,
            other => {
                let id = other.to_lowercase();
                if !EXPERIMENTS.iter().any(|(known, _)| *known == id) {
                    return Err(format!("unknown experiment {other:?}"));
                }
                parsed.named.push(id);
            }
        }
    }
    Ok(parsed)
}

fn usage(error: &str) -> ! {
    eprintln!("reproduce: {error}");
    eprintln!("usage: reproduce [--seed N] [--quick] [e1 .. e8 p1 a1]");
    std::process::exit(2);
}

fn main() {
    let args = parse(env::args().skip(1)).unwrap_or_else(|e| usage(&e));
    let report = if args.named.is_empty() {
        render(args.seed, args.quick)
    } else {
        render_with(args.seed, args.quick, |id| {
            args.named.iter().any(|n| n == id)
        })
    };
    print!("{report}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(line: &str) -> Result<Args, String> {
        parse(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn no_arguments_is_the_whole_seed_42_report() {
        let args = parse_str("").expect("valid");
        assert_eq!(
            args,
            Args {
                seed: 42,
                quick: false,
                named: vec![]
            }
        );
    }

    #[test]
    fn named_experiments_run_even_under_quick() {
        let args = parse_str("--seed 7 A1 --quick e4").expect("valid");
        assert_eq!(args.seed, 7);
        assert!(args.quick);
        // A named a1 is kept under --quick; only the whole report drops it.
        assert_eq!(args.named, vec!["a1", "e4"]);
    }

    #[test]
    fn unknown_experiments_and_bad_seeds_are_errors() {
        assert!(parse_str("e9").unwrap_err().contains("unknown experiment"));
        assert!(parse_str("--threads").is_err());
        assert!(parse_str("--seed x")
            .unwrap_err()
            .contains("unsigned integer"));
        assert!(parse_str("--seed -1").is_err());
        assert!(parse_str("e1 --seed")
            .unwrap_err()
            .contains("needs a value"));
    }
}
