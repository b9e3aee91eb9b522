//! # sdd-cli
//!
//! A terminal REPL around [`sdd_explorer::Explorer`] — the equivalent of
//! the paper's interactive prototype (demonstrated at VLDB 2015), driving
//! smart drill-downs, star drill-downs, roll-ups, weight switches, and
//! exact-count refreshes from a command line.
//!
//! The REPL core is I/O-generic ([`run`]) so the full interaction loop is
//! unit-testable with string buffers; `src/main.rs` wires it to
//! stdin/stdout.

// D002, E001 (docs/DETERMINISM.md); the banned lists are in clippy.toml.
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]
#![warn(missing_docs)]

pub mod command;
pub mod net;
pub mod repl;

pub use command::{parse_command, parse_path, Command, WeightKind};
pub use net::{connect, serve};
pub use repl::run;
