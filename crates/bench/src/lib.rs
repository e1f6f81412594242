//! The GOBO table and figure harness.
//!
//! The paper's tables, the ablations and the figure series are
//! regenerated by the `regen-tables` and `regen-figures` binaries; wall-clock
//! numbers come from `stackbench` (`benchmark/`), not from here.
