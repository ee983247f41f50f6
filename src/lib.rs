#![forbid(unsafe_code)]

pub use dcn_experiments as experiments;
