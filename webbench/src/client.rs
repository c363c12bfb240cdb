//! One closed-loop client: its SQL session, its seeded generator, what it
//! measured, and the log of writes the deployment acknowledged to it.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use yesquel::sql::ResultSet;
use yesquel::Session;
use yesquel::{Error, Result, Value};

use crate::gen::{client_rng, Rng};
use crate::measure::Tracer;

/// Failed operations by kind, taken from the final [`Error`] variant.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Fails {
    /// Write-write conflicts, including retries exhausted on them.
    pub conflict: u64,
    pub indeterminate: u64,
    pub unavailable: u64,
    pub lock_timeout: u64,
    pub other: u64,
}

impl Fails {
    pub fn record(&mut self, e: &Error) {
        match e {
            Error::Conflict(_) | Error::Aborted(_) | Error::RetriesExhausted { .. } => {
                self.conflict += 1
            }
            Error::Indeterminate(_) => self.indeterminate += 1,
            Error::Unavailable(_) | Error::ServerUnavailable(_) | Error::Timeout(_) => {
                self.unavailable += 1
            }
            Error::LockTimeout(_) => self.lock_timeout += 1,
            _ => self.other += 1,
        }
    }

    pub fn total(&self) -> u64 {
        self.conflict + self.indeterminate + self.unavailable + self.lock_timeout + self.other
    }

    pub fn add(&mut self, o: &Fails) {
        self.conflict += o.conflict;
        self.indeterminate += o.indeterminate;
        self.unavailable += o.unavailable;
        self.lock_timeout += o.lock_timeout;
        self.other += o.other;
    }
}

/// Writes acknowledged to this client (the durability and conservation
/// checks replay them), plus the ones whose outcome is unknown.
#[derive(Debug, Default, Clone)]
pub struct Acked {
    /// Acknowledged `views = views + 1` increments.
    pub increments: u64,
    /// Increments that ended `Indeterminate`.
    pub increments_unknown: u64,
    /// Acknowledged revisions: rowid → (page id, edit nonce).
    pub revisions: BTreeMap<i64, (i64, u64)>,
    /// Revision inserts that ended `Indeterminate`.
    pub revisions_unknown: u64,
}

/// What the current operation is doing, for the traced run: the statement
/// text whose parse and plan are replayed, whether the session had to
/// parse and plan it, and the tree-level calls to replay.
#[derive(Debug, Clone)]
pub struct Probe {
    pub sql: String,
    /// The text is literal-inlined, so the session's statement cache
    /// misses and the statement is parsed and planned.
    pub uncached: bool,
    /// The `ydbt` read the statement boils down to, if any.
    pub read: Option<Rung>,
    /// Bytes of the row the operation writes, if it writes.
    pub write_bytes: Option<usize>,
}

/// The `ydbt` read a statement boils down to.
#[derive(Debug, Clone, Copy)]
pub enum Rung {
    /// Point lookup of a table row by rowid.
    Row { table: &'static str, id: i64 },
    /// Unique-index probe of page `id`'s title, then the row fetch-back.
    Title { id: i64 },
    /// Title-index range scan of `limit` entries from page `id`'s title.
    TitleScan { id: i64, limit: usize },
}

/// Length of the windows throughput is counted in.
pub const WINDOW: Duration = Duration::from_secs(2);

pub struct Client {
    pub idx: usize,
    pub session: Session,
    pub rng: Rng,
    /// Latencies of the current phase's successes, ns, in completion order.
    pub read_ns: Vec<u64>,
    pub write_ns: Vec<u64>,
    /// Successes of the current phase, by the window they completed in.
    pub ok_per_window: Vec<u64>,
    phase_start: Instant,
    pub attempted: u64,
    pub fails: Fails,
    /// Statements issued and rows they returned in the current phase.
    pub stmts: u64,
    pub rows: u64,
    /// Bytes of column values this client asked the database to write.
    pub user_bytes: u64,
    pub acked: Acked,
    /// Check failures seen by this client.
    pub bad: Vec<String>,
    pub tracer: Option<Tracer>,
    /// The traced operation in flight: (op id, op span id).
    pub traced_op: Option<(u64, u64)>,
    pub probe: Option<Probe>,
    /// Traced op id → whether its statement text missed the cache.
    pub uncached_ops: BTreeMap<u64, bool>,
}

impl Client {
    pub fn new(idx: usize, session: Session, seed: u64) -> Client {
        Client {
            idx,
            session,
            rng: client_rng(seed, idx),
            read_ns: Vec::new(),
            write_ns: Vec::new(),
            ok_per_window: Vec::new(),
            phase_start: Instant::now(),
            attempted: 0,
            fails: Fails::default(),
            stmts: 0,
            rows: 0,
            user_bytes: 0,
            acked: Acked::default(),
            bad: Vec::new(),
            tracer: None,
            traced_op: None,
            probe: None,
            uncached_ops: BTreeMap::new(),
        }
    }

    /// Clears what a phase measures and starts its windows at `start`; the
    /// acknowledged-write log stays.
    pub fn reset_phase(&mut self, start: Instant) {
        self.read_ns.clear();
        self.write_ns.clear();
        self.ok_per_window.clear();
        self.phase_start = start;
        self.attempted = 0;
        self.fails = Fails::default();
        self.stmts = 0;
        self.rows = 0;
        self.user_bytes = 0;
    }

    /// Executes one statement through the session, counting it and, in a
    /// traced operation, recording a `yesquel.stmt` span around it.
    pub fn exec(&mut self, sql: &str, params: &[Value]) -> Result<ResultSet> {
        self.stmts += 1;
        let rs = match (self.tracer.as_mut(), self.traced_op) {
            (Some(t), Some((op, parent))) => t.span(op, Some(parent), "yesquel.stmt", |_, _| {
                self.session.execute(sql, params)
            }),
            _ => self.session.execute(sql, params),
        }?;
        self.rows += rs.rows.len() as u64;
        Ok(rs)
    }

    /// Rolls back the explicit transaction if a failed statement left it
    /// open.
    pub fn rollback_if_open(&mut self) {
        if self.session.in_transaction() {
            let _ = self.session.execute("ROLLBACK", &[]);
        }
    }

    /// Times `op`, filing its latency under reads or writes on success and
    /// its error under failures otherwise.
    pub fn timed(&mut self, write: bool, op: impl FnOnce(&mut Client) -> Result<()>) {
        self.attempted += 1;
        let t0 = Instant::now();
        let out = op(self);
        let end = Instant::now();
        let ns = (end - t0).as_nanos() as u64;
        match out {
            Ok(()) => {
                let i = ((end - self.phase_start).as_nanos() / WINDOW.as_nanos()) as usize;
                if self.ok_per_window.len() <= i {
                    self.ok_per_window.resize(i + 1, 0);
                }
                self.ok_per_window[i] += 1;
                if write {
                    self.write_ns.push(ns)
                } else {
                    self.read_ns.push(ns)
                }
            }
            Err(e) => {
                self.fails.record(&e);
                if matches!(
                    e,
                    Error::Corruption(_)
                        | Error::Internal(_)
                        | Error::Parse(_)
                        | Error::Schema(_)
                        | Error::Bind(_)
                        | Error::Type(_)
                        | Error::Constraint(_)
                        | Error::Unsupported(_)
                ) {
                    self.bad.push(format!("operation failed: {e}"));
                }
            }
        }
    }

    /// Notes a check failure.
    pub fn check(&mut self, r: std::result::Result<(), String>) {
        if let Err(msg) = r {
            if self.bad.len() < 16 {
                self.bad.push(msg);
            }
        }
    }

    /// Runs an explicit transaction, retrying it from `BEGIN` on retryable
    /// errors; returns its last outcome.
    pub fn txn<T>(&mut self, mut body: impl FnMut(&mut Client) -> Result<T>) -> Result<T> {
        const ATTEMPTS: usize = 64;
        let mut last = None;
        for attempt in 0..ATTEMPTS {
            let out = self
                .exec("BEGIN", &[])
                .and_then(|_| body(self))
                .and_then(|v| self.exec("COMMIT", &[]).map(|_| v));
            match out {
                Ok(v) => return Ok(v),
                Err(e) => {
                    self.rollback_if_open();
                    if !e.is_retryable() {
                        return Err(e);
                    }
                    last = Some(e);
                    if attempt > 2 {
                        std::thread::sleep(std::time::Duration::from_micros(
                            20 * (attempt as u64).min(50),
                        ));
                    }
                }
            }
        }
        Err(Error::RetriesExhausted {
            attempts: ATTEMPTS,
            last: Box::new(last.expect("a failed attempt")),
        })
    }
}

/// Bytes a row's column values occupy as the client sent them.
pub fn value_bytes(params: &[Value]) -> u64 {
    params
        .iter()
        .map(|v| match v {
            Value::Text(s) => s.len() as u64,
            _ => 8,
        })
        .sum()
}
