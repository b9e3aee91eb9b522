//! The plain transports a visit can be replayed over: the engine
//! in-process, a server over the TCP line protocol, a server over HTTP.
//! (The traced and shadow targets of the ladder live in `ladder.rs`.)

use crate::driver::{Reply, Target};
use crate::tape::ScriptRequest;
use sdd_server::{Client, Engine, HttpClient};

/// `Engine::handle_line`, with the harness playing the background worker:
/// think-time work is run by [`Target::think`], where it can be timed.
pub struct Inproc<'e>(pub &'e Engine);

impl Target for Inproc<'_> {
    fn call(&mut self, req: &ScriptRequest) -> Result<Reply, String> {
        let (line, hint) = self.0.handle_line(&req.line);
        Ok(Reply {
            line,
            think_pending: hint.is_some(),
        })
    }

    fn think(&mut self, session: &str) {
        self.0.run_pending_prefetch(session);
    }
}

/// One connection of the TCP line protocol. The server's own background
/// worker does the think-time work.
pub struct Tcp(pub Client);

impl Target for Tcp {
    fn call(&mut self, req: &ScriptRequest) -> Result<Reply, String> {
        let line = self.0.call_line(&req.line).map_err(|e| e.to_string())?;
        Ok(Reply {
            line,
            think_pending: false,
        })
    }
}

/// One keep-alive connection of the HTTP front-end (`POST /v1/line`).
pub struct Http(pub HttpClient);

impl Target for Http {
    fn call(&mut self, req: &ScriptRequest) -> Result<Reply, String> {
        let (_status, line) = self
            .0
            .call_line(None, &req.line)
            .map_err(|e| e.to_string())?;
        Ok(Reply {
            line,
            think_pending: false,
        })
    }
}
