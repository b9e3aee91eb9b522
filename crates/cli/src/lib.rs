//! # sdd-cli
//!
//! A terminal REPL over the smart drill-down engine — the equivalent of
//! the paper's interactive prototype (demonstrated at VLDB 2015), driving
//! smart drill-downs, star drill-downs, roll-ups, weight switches, and
//! exact-count refreshes from a command line.
//!
//! The local REPL ([`run`]) and `sdd connect` ([`connect`]) run one
//! command loop ([`repl::drive`]) over the wire protocol: the REPL against
//! an in-process [`sdd_server::Engine`], `connect` against a server. The
//! loop is I/O-generic, so a whole interaction is unit-testable with
//! string buffers; `src/main.rs` wires it to stdin/stdout.

// D002, E001 (docs/DETERMINISM.md); the banned lists are in clippy.toml.
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]
#![warn(missing_docs)]

pub mod command;
pub mod net;
pub mod repl;

pub use command::{parse_command, parse_path, Command};
pub use net::{connect, serve};
pub use repl::run;
