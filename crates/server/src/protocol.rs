//! The line-delimited JSON wire protocol.
//!
//! One request object per line in, one response object per line out, in
//! order. Requests carry an `"op"` discriminator; responses carry
//! `"ok": true/false` plus an echo of the op. See `PROTOCOL.md` in this
//! crate for the full reference with examples.
//!
//! Both directions are implemented here (`to_json` / `from_json` on both
//! types) so the test harness can round-trip every variant and drive the
//! engine through exactly the bytes a TCP client would send.

use crate::json::Json;

/// Per-session knobs a client may set at `open`. Unset fields fall back to
/// the server's engine defaults.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpenOptions {
    /// Rules per expansion (the paper's `k`).
    pub k: Option<usize>,
    /// The optimizer's `mw` parameter.
    pub max_weight: Option<f64>,
    /// Weighting function: `"size"`, `"bits"`, or `"size-1"`.
    pub weight: Option<String>,
    /// Sampling seed (sessions with equal seeds draw equal samples). Sent
    /// as a JSON **string** so the full `u64` range survives the wire
    /// (JSON numbers go through `f64`, which is exact only to 2^53);
    /// small numeric seeds are accepted on parse for hand-written clients.
    pub seed: Option<u64>,
    /// Sample-memory capacity `M`.
    pub capacity: Option<usize>,
    /// Minimum sample size `minSS`.
    pub min_ss: Option<usize>,
}

/// One protocol request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Create a session under a client-chosen name.
    Open {
        /// Client-chosen session name (the registry key).
        session: String,
        /// Optional per-session configuration.
        options: OpenOptions,
    },
    /// Smart drill-down on the rule at `path`.
    Expand {
        /// Session name.
        session: String,
        /// Node path (child indices from the root).
        path: Vec<usize>,
    },
    /// Star drill-down on `column` of the rule at `path`.
    Star {
        /// Session name.
        session: String,
        /// Node path.
        path: Vec<usize>,
        /// Column name to instantiate.
        column: String,
    },
    /// Roll up the node at `path`.
    Collapse {
        /// Session name.
        session: String,
        /// Node path.
        path: Vec<usize>,
    },
    /// List every visible rule.
    Rules {
        /// Session name.
        session: String,
    },
    /// Render the paper-style text table.
    Render {
        /// Session name.
        session: String,
    },
    /// Replace all displayed estimates with exact counts (one scan).
    Refresh {
        /// Session name.
        session: String,
    },
    /// Session + sampling-layer statistics.
    Stats {
        /// Session name.
        session: String,
    },
    /// Drop a session.
    Close {
        /// Session name.
        session: String,
    },
    /// Append a batch of rows to a live (appendable) shared table. The
    /// table-level analogue of `table`: it carries no session — every
    /// session observes the new epoch at its next operation.
    Append {
        /// Rows in schema order, one `Vec<String>` of category values per row.
        rows: Vec<Vec<String>>,
        /// Measure columns (one `Vec<f64>` per measure). A live table carries
        /// no measures, so the engine rejects any; the field stays because
        /// the repository benchmark still builds it.
        measures: Vec<Vec<f64>>,
    },
    /// Liveness probe.
    Ping,
    /// Shared-table metadata.
    TableInfo,
}

impl Request {
    /// The `"op"` string of this request.
    pub fn op(&self) -> &'static str {
        match self {
            Request::Open { .. } => "open",
            Request::Expand { .. } => "expand",
            Request::Star { .. } => "star",
            Request::Collapse { .. } => "collapse",
            Request::Rules { .. } => "rules",
            Request::Render { .. } => "render",
            Request::Refresh { .. } => "refresh",
            Request::Stats { .. } => "stats",
            Request::Close { .. } => "close",
            Request::Append { .. } => "append",
            Request::Ping => "ping",
            Request::TableInfo => "table",
        }
    }

    /// Serializes to the wire object.
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(String, Json)> = vec![("op".to_owned(), Json::str(self.op()))];
        let mut push = |k: &str, v: Json| pairs.push((k.to_owned(), v));
        match self {
            Request::Open { session, options } => {
                push("session", Json::str(session.clone()));
                if let Some(k) = options.k {
                    push("k", Json::num(k as f64));
                }
                if let Some(mw) = options.max_weight {
                    push("mw", Json::num(mw));
                }
                if let Some(w) = &options.weight {
                    push("weight", Json::str(w.clone()));
                }
                if let Some(seed) = options.seed {
                    push("seed", Json::str(seed.to_string()));
                }
                if let Some(c) = options.capacity {
                    push("capacity", Json::num(c as f64));
                }
                if let Some(m) = options.min_ss {
                    push("min_ss", Json::num(m as f64));
                }
            }
            Request::Expand { session, path } | Request::Collapse { session, path } => {
                push("session", Json::str(session.clone()));
                push("path", path_json(path));
            }
            Request::Star {
                session,
                path,
                column,
            } => {
                push("session", Json::str(session.clone()));
                push("path", path_json(path));
                push("column", Json::str(column.clone()));
            }
            Request::Rules { session }
            | Request::Render { session }
            | Request::Refresh { session }
            | Request::Stats { session }
            | Request::Close { session } => {
                push("session", Json::str(session.clone()));
            }
            Request::Append { rows, measures } => {
                push(
                    "rows",
                    Json::Arr(
                        rows.iter()
                            .map(|r| Json::Arr(r.iter().map(|c| Json::str(c.clone())).collect()))
                            .collect(),
                    ),
                );
                if !measures.is_empty() {
                    push(
                        "measures",
                        Json::Arr(
                            measures
                                .iter()
                                .map(|m| Json::Arr(m.iter().map(|&x| Json::num(x)).collect()))
                                .collect(),
                        ),
                    );
                }
            }
            Request::Ping | Request::TableInfo => {}
        }
        Json::Obj(pairs)
    }

    /// Parses a wire object into a request.
    pub fn from_json(v: &Json) -> Result<Request, String> {
        let op = v
            .get("op")
            .and_then(Json::as_str)
            .ok_or("missing string field \"op\"")?;
        let session = || -> Result<String, String> {
            Ok(v.get("session")
                .and_then(Json::as_str)
                .ok_or("missing string field \"session\"")?
                .to_owned())
        };
        let path = || -> Result<Vec<usize>, String> {
            let arr = v
                .get("path")
                .and_then(Json::as_arr)
                .ok_or("missing array field \"path\"")?;
            arr.iter()
                .map(|e| e.as_usize().ok_or_else(|| "bad path element".to_owned()))
                .collect()
        };
        match op {
            "open" => {
                let get_usize = |key: &str| -> Result<Option<usize>, String> {
                    match v.get(key) {
                        None => Ok(None),
                        Some(x) => Ok(Some(
                            x.as_usize().ok_or(format!("bad integer field {key:?}"))?,
                        )),
                    }
                };
                let options = OpenOptions {
                    k: get_usize("k")?,
                    max_weight: match v.get("mw") {
                        None => None,
                        Some(x) => Some(x.as_f64().ok_or("bad number field \"mw\"")?),
                    },
                    weight: match v.get("weight") {
                        None => None,
                        Some(x) => {
                            Some(x.as_str().ok_or("bad string field \"weight\"")?.to_owned())
                        }
                    },
                    seed: match v.get("seed") {
                        None => None,
                        // Canonical form: a decimal string (exact for all
                        // of u64). Numbers work up to 2^53.
                        Some(Json::Str(s)) => Some(
                            s.parse::<u64>()
                                .map_err(|_| "bad integer field \"seed\"".to_owned())?,
                        ),
                        Some(x) => Some(x.as_usize().ok_or("bad integer field \"seed\"")? as u64),
                    },
                    capacity: get_usize("capacity")?,
                    min_ss: get_usize("min_ss")?,
                };
                Ok(Request::Open {
                    session: session()?,
                    options,
                })
            }
            "expand" => Ok(Request::Expand {
                session: session()?,
                path: path()?,
            }),
            "star" => Ok(Request::Star {
                session: session()?,
                path: path()?,
                column: v
                    .get("column")
                    .and_then(Json::as_str)
                    .ok_or("missing string field \"column\"")?
                    .to_owned(),
            }),
            "collapse" => Ok(Request::Collapse {
                session: session()?,
                path: path()?,
            }),
            "rules" => Ok(Request::Rules {
                session: session()?,
            }),
            "render" => Ok(Request::Render {
                session: session()?,
            }),
            "refresh" => Ok(Request::Refresh {
                session: session()?,
            }),
            "stats" => Ok(Request::Stats {
                session: session()?,
            }),
            "close" => Ok(Request::Close {
                session: session()?,
            }),
            "append" => {
                let rows = v
                    .get("rows")
                    .and_then(Json::as_arr)
                    .ok_or("missing array field \"rows\"")?
                    .iter()
                    .map(|r| {
                        r.as_arr()
                            .ok_or_else(|| "bad row (expected array of strings)".to_owned())?
                            .iter()
                            .map(|c| {
                                c.as_str()
                                    .map(str::to_owned)
                                    .ok_or_else(|| "bad category value".to_owned())
                            })
                            .collect()
                    })
                    .collect::<Result<Vec<Vec<String>>, String>>()?;
                let measures = match v.get("measures") {
                    None => Vec::new(),
                    Some(m) => m
                        .as_arr()
                        .ok_or("bad array field \"measures\"")?
                        .iter()
                        .map(|col| {
                            col.as_arr()
                                .ok_or_else(|| "bad measure column".to_owned())?
                                .iter()
                                .map(|x| x.as_f64().ok_or_else(|| "bad measure value".to_owned()))
                                .collect()
                        })
                        .collect::<Result<Vec<Vec<f64>>, String>>()?,
                };
                Ok(Request::Append { rows, measures })
            }
            "ping" => Ok(Request::Ping),
            "table" => Ok(Request::TableInfo),
            other => Err(format!("unknown op {other:?}")),
        }
    }
}

/// One displayed rule on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleInfo {
    /// Node path from the root.
    pub path: Vec<usize>,
    /// The rule, rendered as the paper's tuple pattern, e.g.
    /// `(Walmart, ?, ?)`.
    pub rule: String,
    /// Displayed (possibly estimated) count.
    pub count: f64,
    /// Confidence-interval bounds (equal to `count` when exact).
    pub ci: (f64, f64),
    /// True once the count is exact.
    pub exact: bool,
    /// `W(rule)`.
    pub weight: f64,
}

impl RuleInfo {
    fn to_json(&self) -> Json {
        Json::obj([
            ("path", path_json(&self.path)),
            ("rule", Json::str(self.rule.clone())),
            ("count", Json::num(self.count)),
            (
                "ci",
                Json::Arr(vec![Json::num(self.ci.0), Json::num(self.ci.1)]),
            ),
            ("exact", Json::Bool(self.exact)),
            ("weight", Json::num(self.weight)),
        ])
    }

    fn from_json(v: &Json) -> Result<RuleInfo, String> {
        let num = |key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("missing number field {key:?}"))
        };
        let ci = v
            .get("ci")
            .and_then(Json::as_arr)
            .filter(|a| a.len() == 2)
            .ok_or("missing 2-element array field \"ci\"")?;
        Ok(RuleInfo {
            path: v
                .get("path")
                .and_then(Json::as_arr)
                .ok_or("missing array field \"path\"")?
                .iter()
                .map(|e| e.as_usize().ok_or_else(|| "bad path element".to_owned()))
                .collect::<Result<_, _>>()?,
            rule: v
                .get("rule")
                .and_then(Json::as_str)
                .ok_or("missing string field \"rule\"")?
                .to_owned(),
            count: num("count")?,
            ci: (
                ci[0].as_f64().ok_or("bad ci bound")?,
                ci[1].as_f64().ok_or("bad ci bound")?,
            ),
            exact: v
                .get("exact")
                .and_then(Json::as_bool)
                .ok_or("missing bool field \"exact\"")?,
            weight: num("weight")?,
        })
    }
}

/// Session + sampling counters on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsInfo {
    /// Expansions performed.
    pub expansions: usize,
    /// Expansions served without a fresh blocking scan.
    pub served_from_memory: usize,
    /// Exact-count refresh passes.
    pub refreshes: usize,
    /// Find-mechanism hits.
    pub finds: usize,
    /// Combine-mechanism hits.
    pub combines: usize,
    /// Create-mechanism hits (each one blocked a request on a full scan).
    pub creates: usize,
    /// Full table passes (Create + prefetch scans).
    pub full_scans: usize,
    /// Sample evictions.
    pub evictions: usize,
    /// Stored samples right now.
    pub stored_samples: usize,
    /// Tuples held across stored samples.
    pub memory_used: usize,
}

impl StatsInfo {
    const FIELDS: [&'static str; 10] = [
        "expansions",
        "served_from_memory",
        "refreshes",
        "finds",
        "combines",
        "creates",
        "full_scans",
        "evictions",
        "stored_samples",
        "memory_used",
    ];

    fn values(&self) -> [usize; 10] {
        [
            self.expansions,
            self.served_from_memory,
            self.refreshes,
            self.finds,
            self.combines,
            self.creates,
            self.full_scans,
            self.evictions,
            self.stored_samples,
            self.memory_used,
        ]
    }

    fn to_json(self) -> Json {
        Json::Obj(
            Self::FIELDS
                .iter()
                .zip(self.values())
                .map(|(k, v)| ((*k).to_owned(), Json::num(v as f64)))
                .collect(),
        )
    }

    fn from_json(v: &Json) -> Result<StatsInfo, String> {
        let mut values = [0usize; 10];
        for (slot, key) in values.iter_mut().zip(Self::FIELDS) {
            *slot = v
                .get(key)
                .and_then(Json::as_usize)
                .ok_or(format!("missing integer field {key:?}"))?;
        }
        let [expansions, served_from_memory, refreshes, finds, combines, creates, full_scans, evictions, stored_samples, memory_used] =
            values;
        Ok(StatsInfo {
            expansions,
            served_from_memory,
            refreshes,
            finds,
            combines,
            creates,
            full_scans,
            evictions,
            stored_samples,
            memory_used,
        })
    }
}

/// One protocol response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// `open` succeeded.
    Opened {
        /// The session name now registered.
        session: String,
    },
    /// `expand`/`star` succeeded: the new children.
    Expanded {
        /// New child rules, in display order.
        rules: Vec<RuleInfo>,
    },
    /// `collapse` succeeded.
    Collapsed,
    /// `rules`/`refresh` result: every visible rule in display order.
    RuleList {
        /// Visible rules (root first).
        rules: Vec<RuleInfo>,
    },
    /// `render` result.
    Rendered {
        /// The dotted-indent text table.
        text: String,
    },
    /// `stats` result.
    Stats {
        /// Counter snapshot.
        stats: StatsInfo,
    },
    /// `close` succeeded.
    Closed,
    /// `append` succeeded: the batch is sealed and visible.
    Appended {
        /// The table epoch after this append (= total appends so far).
        epoch: u64,
        /// Total visible rows after this append.
        rows: usize,
    },
    /// `ping` reply.
    Pong,
    /// `table` reply.
    TableInfo {
        /// Row count of the shared table.
        rows: usize,
        /// Column names in schema order.
        columns: Vec<String>,
    },
    /// Any failure; `message` comes from the underlying error's `Display`
    /// (`SessionError`, `TableError`, parse errors, registry errors).
    Error {
        /// Human-readable description.
        message: String,
    },
}

impl Response {
    /// The `"op"` echo of this response.
    pub fn op(&self) -> &'static str {
        match self {
            Response::Opened { .. } => "open",
            Response::Expanded { .. } => "expand",
            Response::Collapsed => "collapse",
            Response::RuleList { .. } => "rules",
            Response::Rendered { .. } => "render",
            Response::Stats { .. } => "stats",
            Response::Closed => "close",
            Response::Appended { .. } => "append",
            Response::Pong => "pong",
            Response::TableInfo { .. } => "table",
            Response::Error { .. } => "error",
        }
    }

    /// Serializes to the wire object.
    pub fn to_json(&self) -> Json {
        let ok = !matches!(self, Response::Error { .. });
        let mut pairs: Vec<(String, Json)> = vec![
            ("ok".to_owned(), Json::Bool(ok)),
            ("op".to_owned(), Json::str(self.op())),
        ];
        let mut push = |k: &str, v: Json| pairs.push((k.to_owned(), v));
        match self {
            Response::Opened { session } => push("session", Json::str(session.clone())),
            Response::Expanded { rules } | Response::RuleList { rules } => push(
                "rules",
                Json::Arr(rules.iter().map(RuleInfo::to_json).collect()),
            ),
            Response::Rendered { text } => push("text", Json::str(text.clone())),
            Response::Stats { stats } => push("stats", stats.to_json()),
            Response::TableInfo { rows, columns } => {
                push("rows", Json::num(*rows as f64));
                push(
                    "columns",
                    Json::Arr(columns.iter().map(|c| Json::str(c.clone())).collect()),
                );
            }
            Response::Appended { epoch, rows } => {
                push("epoch", Json::num(*epoch as f64));
                push("rows", Json::num(*rows as f64));
            }
            Response::Error { message } => push("error", Json::str(message.clone())),
            Response::Collapsed | Response::Closed | Response::Pong => {}
        }
        Json::Obj(pairs)
    }

    /// Parses a wire object into a response.
    pub fn from_json(v: &Json) -> Result<Response, String> {
        let op = v
            .get("op")
            .and_then(Json::as_str)
            .ok_or("missing string field \"op\"")?;
        let rules = || -> Result<Vec<RuleInfo>, String> {
            v.get("rules")
                .and_then(Json::as_arr)
                .ok_or("missing array field \"rules\"")?
                .iter()
                .map(RuleInfo::from_json)
                .collect()
        };
        match op {
            "open" => Ok(Response::Opened {
                session: v
                    .get("session")
                    .and_then(Json::as_str)
                    .ok_or("missing string field \"session\"")?
                    .to_owned(),
            }),
            "expand" => Ok(Response::Expanded { rules: rules()? }),
            "collapse" => Ok(Response::Collapsed),
            "rules" => Ok(Response::RuleList { rules: rules()? }),
            "render" => Ok(Response::Rendered {
                text: v
                    .get("text")
                    .and_then(Json::as_str)
                    .ok_or("missing string field \"text\"")?
                    .to_owned(),
            }),
            "stats" => Ok(Response::Stats {
                stats: StatsInfo::from_json(
                    v.get("stats").ok_or("missing object field \"stats\"")?,
                )?,
            }),
            "close" => Ok(Response::Closed),
            "append" => Ok(Response::Appended {
                epoch: v
                    .get("epoch")
                    .and_then(Json::as_usize)
                    .ok_or("missing integer field \"epoch\"")? as u64,
                rows: v
                    .get("rows")
                    .and_then(Json::as_usize)
                    .ok_or("missing integer field \"rows\"")?,
            }),
            "pong" => Ok(Response::Pong),
            "table" => Ok(Response::TableInfo {
                rows: v
                    .get("rows")
                    .and_then(Json::as_usize)
                    .ok_or("missing integer field \"rows\"")?,
                columns: v
                    .get("columns")
                    .and_then(Json::as_arr)
                    .ok_or("missing array field \"columns\"")?
                    .iter()
                    .map(|c| {
                        c.as_str()
                            .map(str::to_owned)
                            .ok_or_else(|| "bad column name".to_owned())
                    })
                    .collect::<Result<_, _>>()?,
            }),
            "error" => Ok(Response::Error {
                message: v
                    .get("error")
                    .and_then(Json::as_str)
                    .ok_or("missing string field \"error\"")?
                    .to_owned(),
            }),
            other => Err(format!("unknown response op {other:?}")),
        }
    }

    /// Builds the error response for any displayable failure.
    pub fn error(e: impl std::fmt::Display) -> Response {
        Response::Error {
            message: e.to_string(),
        }
    }
}

fn path_json(path: &[usize]) -> Json {
    Json::Arr(path.iter().map(|&i| Json::num(i as f64)).collect())
}

/// Parses one request line; serializing the result of [`handle`] back is
/// the complete wire behavior of a connection.
///
/// [`handle`]: crate::Engine::handle
pub fn parse_request_line(line: &str) -> Result<Request, String> {
    let v = Json::parse(line).map_err(|e| format!("bad json: {e}"))?;
    Request::from_json(&v)
}
