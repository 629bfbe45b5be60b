//! RPC amplification: physical attempts per logical call.

use std::collections::HashMap;

use dcdo_trace::{SpanKind, TraceLog};

/// Aggregate RPC retry-chain statistics for one log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RpcAmplification {
    /// Logical calls that put at least one attempt on the wire.
    pub calls: u64,
    /// Physical attempts across all calls.
    pub attempts: u64,
    /// Retries (attempts beyond each call's first).
    pub retries: u64,
    /// The worst chain's attempt count.
    pub max_attempts: u64,
    /// Completed chains per [`RpcOutcome`](dcdo_trace::RpcOutcome) code
    /// (ok, fault, unreachable, timeout).
    pub by_outcome: [u64; 4],
}

impl RpcAmplification {
    /// Attempts per call in parts-per-thousand (integer; 1000 = no retries).
    pub fn amplification_millis(&self) -> u64 {
        (self.attempts * 1000).checked_div(self.calls).unwrap_or(0)
    }
}

/// Computes attempt/retry amplification over every retry chain in the log.
pub fn rpc_amplification(log: &TraceLog) -> RpcAmplification {
    let mut attempts_by_call: HashMap<u64, u64> = HashMap::new();
    let mut amp = RpcAmplification::default();
    for e in log.events() {
        match &e.kind {
            SpanKind::RpcAttempt { call, .. } => {
                *attempts_by_call.entry(*call).or_insert(0) += 1;
            }
            SpanKind::RpcRetry { .. } => {
                amp.retries += 1;
            }
            SpanKind::RpcCompleted { outcome, .. } => {
                amp.by_outcome[outcome.code() as usize] += 1;
            }
            _ => {}
        }
    }
    amp.calls = attempts_by_call.len() as u64;
    amp.attempts = attempts_by_call.values().sum();
    amp.max_attempts = attempts_by_call.values().copied().max().unwrap_or(0);
    amp
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcdo_trace::RpcOutcome;

    #[test]
    fn counts_attempts_retries_and_outcomes() {
        let mut l = TraceLog::new();
        l.enable();
        for (call, attempt) in [(1u64, 1u16), (2, 1), (2, 2), (2, 3)] {
            l.emit(
                0,
                0,
                None,
                SpanKind::RpcAttempt {
                    call,
                    object: 9,
                    attempt,
                    dst: 4,
                },
            );
        }
        l.emit(
            0,
            0,
            None,
            SpanKind::RpcRetry {
                call: 2,
                attempt: 1,
            },
        );
        l.emit(
            0,
            0,
            None,
            SpanKind::RpcRetry {
                call: 2,
                attempt: 2,
            },
        );
        l.emit(
            0,
            0,
            None,
            SpanKind::RpcCompleted {
                call: 1,
                outcome: RpcOutcome::Ok,
            },
        );
        l.emit(
            0,
            0,
            None,
            SpanKind::RpcCompleted {
                call: 2,
                outcome: RpcOutcome::Timeout,
            },
        );
        let amp = rpc_amplification(&l);
        assert_eq!(amp.calls, 2);
        assert_eq!(amp.attempts, 4);
        assert_eq!(amp.retries, 2);
        assert_eq!(amp.max_attempts, 3);
        assert_eq!(amp.by_outcome, [1, 0, 0, 1]);
        assert_eq!(amp.amplification_millis(), 2000);
    }

    #[test]
    fn empty_log_is_all_zero() {
        let amp = rpc_amplification(&TraceLog::new());
        assert_eq!(amp, RpcAmplification::default());
        assert_eq!(amp.amplification_millis(), 0);
    }
}
