//! # bga-branchsim
//!
//! The instrumentation substrate of the *Branch-Avoiding Graph Algorithms*
//! reproduction: branch-predictor simulators, exact event counters, the
//! instrumented execution machine the kernels run on, the analytical 2-bit
//! predictor models from the paper's Section 3, and cost models for the
//! seven microarchitectures of Table 1.
//!
//! The paper measures its assembly kernels with hardware performance
//! counters; here the same quantities (instructions, branches,
//! mispredictions, loads, stores) are counted exactly in software while a
//! pluggable [`predictor::PredictorModel`] decides which branches would have
//! been mispredicted. This preserves the paper's claims because they are
//! claims about those event counts and their ratios per iteration (Figs
//! 4–5, 7–8, the Section 3 bounds); only the cycle cost of an event is
//! platform-specific, and [`machine_model`] models it separately.
//!
//! ```
//! use bga_branchsim::machine::{ExecMachine, Machine};
//! use bga_branchsim::site::BranchSite;
//!
//! const LOOP: BranchSite = BranchSite::new(0, "example.loop");
//!
//! let mut machine = ExecMachine::new();
//! let data = [5u32, 3, 9];
//! let mut min = u32::MAX;
//! let mut i = 0usize;
//! while machine.branch(LOOP, i < data.len()) {
//!     let x = machine.load(data[i]);
//!     machine.cond_move(x < min, &mut min, x);
//!     machine.alu(1);
//!     i += 1;
//! }
//! assert_eq!(min, 3);
//! let counters = machine.counters();
//! assert_eq!(counters.branches, 4);       // 3 taken + 1 exit
//! assert_eq!(counters.loads, 3);
//! assert_eq!(counters.conditional_moves, 3);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod counters;
pub mod loop_model;
pub mod machine;
pub mod machine_model;
pub mod markov;
pub mod predictor;
pub mod site;
pub mod trace;

pub use counters::{NormalizedCounters, PerfCounters};
pub use machine::{ExecMachine, Machine, Uncounted};
pub use machine_model::{all_machine_models, MachineModel};
pub use predictor::{Outcome, PredictorModel, TwoBitPredictor, TwoBitState};
pub use site::BranchSite;
pub use trace::BranchTrace;
