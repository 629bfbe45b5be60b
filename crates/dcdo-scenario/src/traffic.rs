//! The mixed-traffic workload family: a stood-up DCDO counter service plus
//! the weighted traffic sources that drive it — plain calls, configuration
//! queries, and live migrations.
//!
//! These power `mixed_traffic`, the first declaration-only scenario: no
//! hand-written driver function exists for it anywhere in the repo; the
//! declaration in [`crate::registry`] is the whole workload.

use dcdo_core::ops::{LazyCheck, MigrateDcdo, QueryFunctionStatus, QueryInterface, SetLazyCheck};
use dcdo_types::{FunctionName, VersionId};
use dcdo_workloads::{service, Manager, Strategy};
use legion_substrate::ControlOp;

use crate::error::ScenarioError;
use crate::topology::{Infra, Topology};
use crate::workload::{RunCx, ServiceHandles, Workload};

/// Stands up the canonical counter service on a Legion testbed: manager on
/// node 0, client on the last node, counter-core ICO on node 1, a v1
/// (derive → incorporate → enable step/get/incr → instantiable → current),
/// and one live DCDO instance on the `home` node. Setup-only (weight 0);
/// publishes [`ServiceHandles`] for the traffic workloads to drive.
pub struct CounterService {
    /// Index into the testbed's node list where the instance lives.
    home: u32,
}

impl CounterService {
    /// A service whose instance starts on node index `home`.
    pub fn new(home: u32) -> Self {
        CounterService { home }
    }
}

impl Workload for CounterService {
    fn name(&self) -> &str {
        "counter_service"
    }

    fn needs(&self) -> Infra {
        Infra::Legion
    }

    fn provides_service(&self) -> bool {
        true
    }

    fn check(&self, topology: &Topology) -> Result<(), ScenarioError> {
        if self.home >= topology.nodes {
            return Err(ScenarioError::BadParam {
                context: "workload counter_service".to_string(),
                msg: format!(
                    "home node {} out of range (topology has {} nodes)",
                    self.home, topology.nodes
                ),
            });
        }
        Ok(())
    }

    fn setup(&mut self, cx: &mut RunCx) {
        let handles = {
            let bed = cx.world.testbed_mut().expect("validated: legion topology");
            let client_node = *bed.nodes.last().expect("validated: nonzero nodes");
            let manager = Manager::spawn(bed, Strategy::SingleVersionExplicit, client_node);
            let (ico, _) = Manager::publish(bed, &service::counter_core(), 1);
            let v1 = manager.build_version(bed, &VersionId::root(), service::counter_v1(ico));
            manager.set_current(bed, &v1);
            let home = bed.nodes[self.home as usize];
            let (dcdo, _) = manager.create(bed, home);
            ServiceHandles {
                manager: manager.object,
                manager_actor: manager.actor,
                client: manager.driver,
                client_node,
                dcdo,
                dcdo_node: home,
            }
        };
        cx.service = Some(handles);
        cx.bump("service.created");
    }
}

/// Closed-loop application calls against the service: alternating `incr`
/// and `get` invocations, each driven to completion.
#[derive(Debug)]
pub struct Calls {
    count: u64,
    /// `incr` and `get`, built once: every call clones a name that shares
    /// one allocation.
    functions: [FunctionName; 2],
}

impl Default for Calls {
    fn default() -> Self {
        Calls {
            count: 0,
            functions: ["incr".into(), "get".into()],
        }
    }
}

impl Calls {
    /// A fresh call generator.
    pub fn new() -> Self {
        Calls::default()
    }
}

impl Workload for Calls {
    fn name(&self) -> &str {
        "calls"
    }

    fn needs(&self) -> Infra {
        Infra::Legion
    }

    fn drives_service(&self) -> bool {
        true
    }

    fn step(&mut self, cx: &mut RunCx, _tick: u64) {
        let Some(s) = cx.service else {
            return;
        };
        let function = self.functions[(self.count % 2) as usize].clone();
        self.count += 1;
        let ok = {
            let bed = cx.world.testbed_mut().expect("validated: legion topology");
            bed.call_and_wait(s.client, s.dcdo, function, vec![])
                .result
                .is_ok()
        };
        if ok {
            cx.bump("calls.ok");
        } else {
            cx.bump("calls.err");
        }
    }
}

/// Configuration-plane traffic against the live DCDO's own interface
/// (§2.2): rotating interface queries, function-status queries, and
/// lazy-check mode flips.
#[derive(Debug)]
pub struct ConfigOps {
    count: u64,
    /// The function the status queries ask about, built once: each query
    /// clones it (a refcount bump).
    status_of: FunctionName,
}

impl Default for ConfigOps {
    fn default() -> Self {
        ConfigOps {
            count: 0,
            status_of: "get".into(),
        }
    }
}

impl ConfigOps {
    /// A fresh configuration-op generator.
    pub fn new() -> Self {
        ConfigOps::default()
    }
}

impl Workload for ConfigOps {
    fn name(&self) -> &str {
        "config_ops"
    }

    fn needs(&self) -> Infra {
        Infra::Legion
    }

    fn drives_service(&self) -> bool {
        true
    }

    fn step(&mut self, cx: &mut RunCx, _tick: u64) {
        let Some(s) = cx.service else {
            return;
        };
        let which = self.count % 3;
        let flip = (self.count / 3).is_multiple_of(2);
        self.count += 1;
        let ok = {
            let bed = cx.world.testbed_mut().expect("validated: legion topology");
            let completion = match which {
                0 => bed.control_and_wait(s.client, s.dcdo, ControlOp::new(QueryInterface)),
                1 => bed.control_and_wait(
                    s.client,
                    s.dcdo,
                    ControlOp::new(QueryFunctionStatus {
                        function: self.status_of.clone(),
                    }),
                ),
                _ => {
                    let mode = if flip {
                        LazyCheck::EveryKCalls(8)
                    } else {
                        LazyCheck::Never
                    };
                    bed.control_and_wait(s.client, s.dcdo, ControlOp::new(SetLazyCheck { mode }))
                }
            };
            completion.result.is_ok()
        };
        if ok {
            cx.bump("config_ops.ok");
        } else {
            cx.bump("config_ops.err");
        }
    }
}

/// Live migrations: each step asks the manager to move the instance to the
/// next node in a destination cycle (skipping wherever it currently is),
/// driven to completion — calls issued after a migration step hit the
/// instance at its new home.
#[derive(Debug)]
pub struct Migrations {
    /// Node indices the instance cycles through.
    cycle: Vec<u32>,
    next: usize,
    current: Option<u32>,
}

impl Migrations {
    /// A migration generator cycling through node indices `cycle`.
    pub fn new(cycle: Vec<u32>) -> Self {
        Migrations {
            cycle,
            next: 0,
            current: None,
        }
    }
}

impl Workload for Migrations {
    fn name(&self) -> &str {
        "migrations"
    }

    fn needs(&self) -> Infra {
        Infra::Legion
    }

    fn drives_service(&self) -> bool {
        true
    }

    fn check(&self, topology: &Topology) -> Result<(), ScenarioError> {
        if self.cycle.is_empty() {
            return Err(ScenarioError::BadParam {
                context: "workload migrations".to_string(),
                msg: "empty destination cycle".to_string(),
            });
        }
        if let Some(&bad) = self.cycle.iter().find(|&&n| n >= topology.nodes) {
            return Err(ScenarioError::BadParam {
                context: "workload migrations".to_string(),
                msg: format!(
                    "destination node {bad} out of range (topology has {} nodes)",
                    topology.nodes
                ),
            });
        }
        Ok(())
    }

    fn step(&mut self, cx: &mut RunCx, _tick: u64) {
        let Some(s) = cx.service else {
            return;
        };
        let current = self.current.unwrap_or_else(|| s.dcdo_node.as_raw());
        let mut dest = self.cycle[self.next % self.cycle.len()];
        self.next += 1;
        if dest == current && self.cycle.len() > 1 {
            dest = self.cycle[self.next % self.cycle.len()];
            self.next += 1;
        }
        if dest == current {
            // Single-destination cycle already at home: nothing to move.
            cx.bump("migrations.noop");
            return;
        }
        let ok = {
            let bed = cx.world.testbed_mut().expect("validated: legion topology");
            let to = bed.nodes[dest as usize];
            bed.control_and_wait(
                s.client,
                s.manager,
                ControlOp::new(MigrateDcdo { object: s.dcdo, to }),
            )
            .result
            .is_ok()
        };
        if ok {
            self.current = Some(dest);
            cx.bump("migrations.ok");
        } else {
            cx.bump("migrations.err");
        }
    }
}
