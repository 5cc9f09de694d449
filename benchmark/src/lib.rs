//! The textjoin benchmark. See `README.md` beside `Cargo.toml`.

pub mod alloc;
pub mod catalogue;
pub mod compare;
pub mod json;
pub mod ops;
pub mod output;
pub mod run;
pub mod sample;
pub mod span;
pub mod trace;
pub mod workload;
