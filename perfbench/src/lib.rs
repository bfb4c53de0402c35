//! The repository benchmark: seeded workloads with hand-written known answers, a
//! closed-loop timed run, and a traced run with spans around each layer's calls.
//! See `perfbench/README.md` for the metrics, the workloads and how to run them.

pub mod expected;
pub mod mutate;
pub mod reference;
pub mod rng;
pub mod stats;
pub mod trace;
pub mod workload;
