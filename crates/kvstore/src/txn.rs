//! Client-side transactions: snapshot reads, buffered writes, and the
//! two-phase-commit coordinator.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use parking_lot::Mutex;
use yesquel_common::obs::clock;
use yesquel_common::obs::trace::{count, span, SpanKind, TraceCounter};
use yesquel_common::stats::{Counter, Histogram, StatsRegistry};
use yesquel_common::timeutil::sleep_backoff;
use yesquel_common::{Error, KvConfig, ObjectId, Result, ServerId, Timestamp, TxnId};
use yesquel_rpc::Transport;

use crate::oracle::TimestampOracle;
use crate::protocol::{KvRequest, KvResponse, WriteOp};
use crate::server::KvServer;
use crate::snapshot::SnapshotTracker;

/// Pre-resolved statistics handles for the client's per-operation paths:
/// one registry lookup at client construction instead of a mutex acquisition
/// plus string allocation per call (the same discipline as the tree layer's
/// `HotCounters`).  Error- and retry-path counters stay as name lookups.
pub(crate) struct KvHot {
    pub(crate) txn_started: Arc<Counter>,
    pub(crate) get_rpcs: Arc<Counter>,
    /// Reads answered by a transaction's read cache (no RPC sent).
    pub(crate) get_cache_hits: Arc<Counter>,
    pub(crate) readonly_commits: Arc<Counter>,
    pub(crate) txn_committed: Arc<Counter>,
    pub(crate) txn_conflicts: Arc<Counter>,
    pub(crate) commit_participants: Arc<Counter>,
    pub(crate) commit_1pc: Arc<Counter>,
    pub(crate) commit_2pc: Arc<Counter>,
    /// Commit-phase latencies, recorded only while `Obs::timing_on`:
    /// `prepare` is the whole phase-one round, `decide` the commit-point RPC
    /// at the primary (1PC charges its single round here too), `apply` the
    /// best-effort secondary commit round.
    pub(crate) commit_prepare_us: Arc<Histogram>,
    pub(crate) commit_decide_us: Arc<Histogram>,
    pub(crate) commit_apply_us: Arc<Histogram>,
}

impl KvHot {
    pub(crate) fn resolve(stats: &StatsRegistry) -> Self {
        KvHot {
            txn_started: stats.counter("kv.txn_started"),
            get_rpcs: stats.counter("kv.get_rpcs"),
            get_cache_hits: stats.counter("kv.get_cache_hits"),
            readonly_commits: stats.counter("kv.readonly_commits"),
            txn_committed: stats.counter("kv.txn_committed"),
            txn_conflicts: stats.counter("kv.txn_conflicts"),
            commit_participants: stats.counter("kv.commit_participants"),
            commit_1pc: stats.counter("kv.commit_1pc"),
            commit_2pc: stats.counter("kv.commit_2pc"),
            commit_prepare_us: stats.histogram("kv.commit_prepare_us"),
            commit_decide_us: stats.histogram("kv.commit_decide_us"),
            commit_apply_us: stats.histogram("kv.commit_apply_us"),
        }
    }
}

/// Internals shared by a [`crate::KvClient`] and every transaction it
/// creates.
pub(crate) struct ClientCore {
    pub(crate) transport: Arc<dyn Transport<KvServer>>,
    pub(crate) oracle: TimestampOracle,
    pub(crate) snapshots: SnapshotTracker,
    pub(crate) cfg: KvConfig,
    pub(crate) stats: StatsRegistry,
    pub(crate) hot: KvHot,
    /// Monotone salt for retry-backoff jitter, so concurrent RPCs from one
    /// client spread out while staying deterministic per deployment.
    pub(crate) retry_salt: AtomicU64,
}

impl ClientCore {
    pub(crate) fn num_servers(&self) -> usize {
        self.transport.num_servers()
    }

    /// Home server of an object in this deployment.
    pub(crate) fn home(&self, obj: ObjectId) -> ServerId {
        obj.home_server(self.num_servers())
    }

    /// Issues one RPC with the deadline-and-retry policy of
    /// [`call_round_retry`](Self::call_round_retry): a round of one.
    pub(crate) fn call_retry(
        &self,
        server: ServerId,
        req: KvRequest,
        max_attempts: usize,
    ) -> Result<KvResponse> {
        let mut out = [unsent()];
        self.retry_into(&[(server, req)], &mut out, max_attempts);
        let [result] = out;
        result
    }

    /// Issues a round of RPCs (see [`Transport::call_round`]) with a
    /// deadline-and-retry policy, returning one result per request in
    /// request order.  Requests that fail with an availability-class error
    /// ([`Error::Timeout`], [`Error::Unavailable`]) are resent, together as
    /// one round, up to `max_attempts` times in all, with one exponential,
    /// jittered backoff per attempt; every other result is final.
    ///
    /// Retrying is safe for every request in the protocol: reads, GC and
    /// status queries are idempotent, allocation merely skips ids, and
    /// prepare / commit / abort are deduplicated server-side by transaction
    /// id.  On exhaustion, if *any* attempt of a request timed out its
    /// error is a `Timeout` (the operation may have been applied — a commit
    /// path must escalate to [`Error::Indeterminate`]); otherwise the
    /// operation was definitely not applied and its last `Unavailable` is
    /// returned.
    pub(crate) fn call_round_retry(
        &self,
        reqs: &[(ServerId, KvRequest)],
        max_attempts: usize,
    ) -> Vec<Result<KvResponse>> {
        let mut out: Vec<Result<KvResponse>> = reqs.iter().map(|_| unsent()).collect();
        self.retry_into(reqs, &mut out, max_attempts);
        out
    }

    /// The retry loop of [`call_round_retry`](Self::call_round_retry):
    /// each attempt sends the requests whose `out` entry is still an
    /// availability error, which every entry is before the first.
    fn retry_into(
        &self,
        reqs: &[(ServerId, KvRequest)],
        out: &mut [Result<KvResponse>],
        max_attempts: usize,
    ) {
        let _rpc_span = span(SpanKind::Rpc);
        count(TraceCounter::Rpcs, reqs.len() as u64);
        let failing = |result: &Result<KvResponse>| matches!(result, Err(e) if e.is_availability());
        let mut salt: Option<u64> = None;
        for attempt in 0..max_attempts.max(1) {
            let pending = out.iter().filter(|r| failing(r)).count();
            if pending == 0 {
                break;
            }
            if attempt > 0 {
                self.stats.counter("rpc.retries").add(pending as u64);
                count(TraceCounter::Retries, pending as u64);
                // Drawn lazily: the fault-free fast path never touches the
                // shared salt counter.
                let salt =
                    *salt.get_or_insert_with(|| self.retry_salt.fetch_add(1, Ordering::Relaxed));
                sleep_backoff(
                    attempt - 1,
                    self.cfg.rpc_backoff_us,
                    self.cfg.rpc_backoff_cap_us,
                    salt,
                );
            }
            if pending == 1 {
                // A lone request goes without the round's vectors: every
                // point read takes this path.
                let i = out.iter().position(failing).expect("one request pending");
                let (server, req) = &reqs[i];
                let result = self.transport.call(*server, req.clone());
                self.settle(&mut out[i], *server, result);
                continue;
            }
            let sent: Vec<usize> = (0..out.len()).filter(|&i| failing(&out[i])).collect();
            let round = sent.iter().map(|&i| reqs[i].clone()).collect();
            for (i, result) in sent.into_iter().zip(self.transport.call_round(round)) {
                self.settle(&mut out[i], reqs[i].0, result);
            }
        }
    }

    /// Records one attempt's `result` for a request to `server` in `slot`,
    /// which holds the request's previous outcome.
    fn settle(&self, slot: &mut Result<KvResponse>, server: ServerId, result: Result<KvResponse>) {
        if matches!(result, Err(Error::Timeout(_))) {
            self.stats.counter("rpc.timeouts").inc();
        }
        *slot = match (result, &*slot) {
            // An earlier attempt may have been applied even though this one
            // was refused: keep the in-doubt flavour.
            (Err(e @ Error::Unavailable(_)), Err(Error::Timeout(_))) => Err(Error::Timeout(
                format!("server {server}: {e} (an earlier attempt timed out)"),
            )),
            (result, _) => result,
        };
    }
}

/// The outcome of a request not sent yet: an availability error, so the
/// retry loop's first attempt sends it.
fn unsent() -> Result<KvResponse> {
    Err(Error::Unavailable(String::new()))
}

/// Lifecycle state of a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnState {
    /// Still accepting reads and writes.
    Active,
    /// Successfully committed.
    Committed,
    /// Aborted (explicitly, or after a failed commit).
    Aborted,
}

/// Capacity, in objects, of a transaction's snapshot read cache.  Small on
/// purpose: the repeats it serves (an UPDATE reading a leaf and then
/// rewriting it, an INSERT probing an index leaf and then inserting into
/// it) are a few objects apart, and a long scan must not pin every leaf it
/// walks.
pub const READ_CACHE_CAP: usize = 32;

/// One cached read: the object and its value at the snapshot.
type CachedRead = (ObjectId, Option<Bytes>);

/// Values a transaction already read from the servers, oldest overwritten
/// first.  Exact under snapshot isolation: a read at a fixed snapshot is
/// repeatable (see `ServerStore::get`), so a second Get of the same object
/// could only return the same answer.
///
/// The entries form a ring of [`READ_CACHE_CAP`] slots: slot 0 is `first`,
/// slots 1.. are `rest`.  The first is inline because most transactions
/// read one object from the servers (a warm point read or single-row
/// update), and those must not pay an allocation; a hit test is a short
/// linear scan.
struct ReadCache {
    first: Option<CachedRead>,
    rest: Vec<CachedRead>,
    /// Entries ever inserted; the next one goes to slot
    /// `inserted % READ_CACHE_CAP`.
    inserted: usize,
}

impl ReadCache {
    fn new() -> Self {
        ReadCache {
            first: None,
            rest: Vec::new(),
            inserted: 0,
        }
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        usize::from(self.first.is_some()) + self.rest.len()
    }

    fn get(&self, obj: ObjectId) -> Option<&Option<Bytes>> {
        self.first
            .iter()
            .chain(&self.rest)
            .find(|(o, _)| *o == obj)
            .map(|(_, v)| v)
    }

    fn insert(&mut self, obj: ObjectId, value: Option<Bytes>) {
        let slot = self.inserted % READ_CACHE_CAP;
        self.inserted += 1;
        match slot.checked_sub(1) {
            None => self.first = Some((obj, value)),
            Some(i) if i < self.rest.len() => self.rest[i] = (obj, value),
            Some(_) => self.rest.push((obj, value)),
        }
    }
}

/// A transaction's client-side state, behind one lock: its buffered writes
/// and its cached reads.  A read consults `writes` first, so a buffered
/// write always wins over a cached read of the same object.
struct Buffers {
    writes: BTreeMap<ObjectId, Option<Bytes>>,
    reads: ReadCache,
}

/// A transaction with snapshot-isolation semantics.
///
/// Reads observe the snapshot defined by the start timestamp plus the
/// transaction's own buffered writes; writes are buffered locally and sent
/// to the storage servers only at commit.  Each object is read from its
/// server once: repeats are answered from a small per-transaction cache
/// (at most [`READ_CACHE_CAP`] objects).
///
/// All access methods take `&self`: the write buffer is internally
/// synchronized so that the layers above (tree cursors, SQL operators) can
/// hold several references to the same transaction.  A `Txn` is nevertheless
/// meant to be driven by one thread at a time, as in the real client
/// library.
pub struct Txn {
    core: Arc<ClientCore>,
    id: TxnId,
    start_ts: Timestamp,
    state: Mutex<TxnState>,
    buffers: Mutex<Buffers>,
    /// Number of Get RPCs issued (used by the latency-table experiment).
    read_rpcs: AtomicU64,
    snapshot_registered: Mutex<bool>,
}

impl Txn {
    pub(crate) fn begin(core: Arc<ClientCore>) -> Self {
        let id = core.oracle.next_txn_id();
        let start_ts = core.oracle.next_timestamp();
        core.snapshots.register(start_ts);
        core.hot.txn_started.inc();
        Txn {
            core,
            id,
            start_ts,
            state: Mutex::new(TxnState::Active),
            buffers: Mutex::new(Buffers {
                writes: BTreeMap::new(),
                reads: ReadCache::new(),
            }),
            read_rpcs: AtomicU64::new(0),
            snapshot_registered: Mutex::new(true),
        }
    }

    /// The transaction's id.
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// The snapshot timestamp this transaction reads at.
    pub fn start_ts(&self) -> Timestamp {
        self.start_ts
    }

    /// Current lifecycle state.
    pub fn state(&self) -> TxnState {
        *self.state.lock()
    }

    /// True if the transaction has not written anything (such transactions
    /// commit without any communication).
    pub fn is_read_only(&self) -> bool {
        self.buffers.lock().writes.is_empty()
    }

    /// Number of objects written so far.
    pub fn write_count(&self) -> usize {
        self.buffers.lock().writes.len()
    }

    /// Number of read RPCs issued so far (diagnostics; reads served from the
    /// local write buffer or the read cache do not count).
    pub fn read_rpcs(&self) -> u64 {
        self.read_rpcs.load(Ordering::Relaxed)
    }

    fn check_active(&self) -> Result<()> {
        match self.state() {
            TxnState::Active => Ok(()),
            TxnState::Committed => Err(Error::InvalidArgument(
                "transaction already committed".into(),
            )),
            TxnState::Aborted => Err(Error::Aborted("transaction already aborted".into())),
        }
    }

    /// Reads `obj` at this transaction's snapshot (observing its own writes).
    /// Only the first read of an object sends a Get; later ones are served
    /// from the read cache while the object stays in it.
    pub fn get(&self, obj: ObjectId) -> Result<Option<Bytes>> {
        self.check_active()?;
        {
            let buffers = self.buffers.lock();
            if let Some(v) = buffers.writes.get(&obj) {
                return Ok(v.clone());
            }
            if let Some(v) = buffers.reads.get(obj) {
                self.core.hot.get_cache_hits.inc();
                return Ok(v.clone());
            }
        }
        let _get_span = span(SpanKind::KvGet);
        let server = self.core.home(obj);
        let mut attempts = 0usize;
        loop {
            self.read_rpcs.fetch_add(1, Ordering::Relaxed);
            self.core.hot.get_rpcs.inc();
            match self.core.call_retry(
                server,
                KvRequest::Get {
                    obj,
                    ts: self.start_ts,
                },
                self.core.cfg.rpc_max_attempts,
            )? {
                KvResponse::Value(v) => {
                    self.buffers.lock().reads.insert(obj, v.clone());
                    return Ok(v);
                }
                // Never cached: the next read retries the server.
                KvResponse::Locked => {
                    attempts += 1;
                    self.core.stats.counter("kv.get_lock_retries").inc();
                    if attempts > self.core.cfg.lock_acquire_retries {
                        return Err(Error::LockTimeout(format!(
                            "object {obj} still locked after {attempts} read attempts"
                        )));
                    }
                    backoff(self.core.cfg.lock_backoff_us, attempts);
                }
                KvResponse::ServerError { message } => return Err(Error::Io(message)),
                other => {
                    return Err(Error::Internal(format!(
                        "unexpected Get response: {other:?}"
                    )))
                }
            }
        }
    }

    /// Buffers a write of `value` to `obj`.
    pub fn put(&self, obj: ObjectId, value: impl Into<Bytes>) -> Result<()> {
        self.check_active()?;
        self.buffers.lock().writes.insert(obj, Some(value.into()));
        Ok(())
    }

    /// Buffers a write of the same `value` to every object in `objs` — the
    /// write-all primitive behind replicated objects.  The payload is shared
    /// (`Bytes` is reference-counted), so the per-copy cost is one buffered
    /// entry, and commit fans the copies out through the ordinary 1PC/2PC
    /// path: either every copy becomes visible or none does.
    pub fn put_many(&self, objs: impl IntoIterator<Item = ObjectId>, value: Bytes) -> Result<()> {
        self.check_active()?;
        let writes = &mut self.buffers.lock().writes;
        for obj in objs {
            writes.insert(obj, Some(value.clone()));
        }
        Ok(())
    }

    /// Buffers a deletion of `obj`.
    pub fn delete(&self, obj: ObjectId) -> Result<()> {
        self.check_active()?;
        self.buffers.lock().writes.insert(obj, None);
        Ok(())
    }

    /// Commits the transaction, returning its commit timestamp.
    ///
    /// Read-only transactions commit locally with no communication.  Single-
    /// participant transactions use one-phase commit (one RPC); multi-
    /// participant transactions use two-phase commit (one prepare RPC and
    /// one commit RPC per participant).
    pub fn commit(self) -> Result<Timestamp> {
        self.check_active()?;
        self.release_snapshot();

        let writes = std::mem::take(&mut self.buffers.lock().writes);
        if writes.is_empty() {
            *self.state.lock() = TxnState::Committed;
            self.core.hot.readonly_commits.inc();
            return Ok(self.start_ts);
        }
        let _commit_span = span(SpanKind::KvCommit);
        // Phase timing is pay-as-you-go: no clock is read unless the
        // deployment turned `Obs::timing_on`.
        let timing = self.core.stats.obs().timing_on();

        // Group writes by participant server, preserving ObjectId order so
        // that servers acquire locks in a deterministic order.
        let mut by_server: BTreeMap<ServerId, Vec<WriteOp>> = BTreeMap::new();
        for (obj, value) in &writes {
            by_server
                .entry(self.core.home(*obj))
                .or_default()
                .push(WriteOp {
                    obj: *obj,
                    value: value.clone(),
                });
        }
        let participants: Vec<ServerId> = by_server.keys().copied().collect();
        self.core
            .hot
            .commit_participants
            .add(participants.len() as u64);

        // One-phase commit when a single server holds every written object.
        // Retries are deduplicated server-side, so a lost response does not
        // double-apply; only full exhaustion with a possible application
        // (timeout) escalates to `Indeterminate`.
        if participants.len() == 1 {
            let (server, writes) = by_server.into_iter().next().expect("one participant");
            self.core.hot.commit_1pc.inc();
            let t0 = timing.then(clock::now);
            let resp = self
                .core
                .call_retry(
                    server,
                    KvRequest::CommitOnePhase {
                        txn: self.id,
                        start_ts: self.start_ts,
                        writes,
                    },
                    self.core.cfg.rpc_max_attempts,
                )
                .map_err(|e| {
                    if matches!(e, Error::Timeout(_)) {
                        self.core.stats.counter("kv.commit_indeterminate").inc();
                        Error::Indeterminate(format!(
                            "one-phase commit of txn {} to server {server}: {e}",
                            self.id
                        ))
                    } else {
                        e
                    }
                })?;
            if let Some(t0) = t0 {
                self.core.hot.commit_decide_us.record(clock::elapsed_us(t0));
            }
            return match resp {
                KvResponse::Committed { commit_ts } => {
                    *self.state.lock() = TxnState::Committed;
                    self.core.hot.txn_committed.inc();
                    Ok(commit_ts)
                }
                KvResponse::Conflict { reason } => {
                    *self.state.lock() = TxnState::Aborted;
                    self.core.hot.txn_conflicts.inc();
                    count(TraceCounter::Conflicts, 1);
                    Err(Error::Conflict(reason))
                }
                KvResponse::ServerError { message } => {
                    // The server's log-before-apply ordering guarantees the
                    // commit was not applied; this is a definite abort, not
                    // an in-doubt outcome.
                    *self.state.lock() = TxnState::Aborted;
                    Err(Error::Io(message))
                }
                other => Err(Error::Internal(format!(
                    "unexpected 1PC response: {other:?}"
                ))),
            };
        }

        // Phase one: prepare at every participant, as one round.  The
        // lowest-numbered participant is the primary — the 2PC commit point
        // the reaper protocol revolves around (see `crate::server`).
        self.core.hot.commit_2pc.inc();
        let prepare_t0 = timing.then(clock::now);
        let primary = participants[0];
        let prepares: Vec<_> = by_server
            .into_iter()
            .map(|(server, writes)| {
                let prepare = KvRequest::Prepare {
                    txn: self.id,
                    start_ts: self.start_ts,
                    writes,
                    primary,
                    lease_us: self.core.cfg.prepare_lease_us,
                };
                (server, prepare)
            })
            .collect();
        let outcomes = self
            .core
            .call_round_retry(&prepares, self.core.cfg.rpc_max_attempts);
        if let Some(t0) = prepare_t0 {
            self.core
                .hot
                .commit_prepare_us
                .record(clock::elapsed_us(t0));
        }
        // Judge the round in server order: the first failure is reported.
        for (&server, resp) in participants.iter().zip(outcomes) {
            match resp {
                Ok(KvResponse::Prepared) => {}
                Ok(KvResponse::Conflict { reason }) => {
                    self.abort_participants(&participants);
                    *self.state.lock() = TxnState::Aborted;
                    self.core.hot.txn_conflicts.inc();
                    count(TraceCounter::Conflicts, 1);
                    return Err(Error::Conflict(reason));
                }
                Ok(KvResponse::ServerError { message }) => {
                    // The participant could not make the prepare durable,
                    // so it holds no locks for us; nothing can have
                    // committed.
                    self.abort_participants(&participants);
                    *self.state.lock() = TxnState::Aborted;
                    return Err(Error::Io(message));
                }
                Ok(other) => {
                    self.abort_participants(&participants);
                    *self.state.lock() = TxnState::Aborted;
                    return Err(Error::Internal(format!(
                        "unexpected prepare response: {other:?}"
                    )));
                }
                Err(e) => {
                    // Coordinator deadline: a participant stayed
                    // unreachable through the retry budget.  No commit was
                    // sent, so the transaction cannot have committed
                    // anywhere — abort the others (best-effort; the reaper
                    // collects whatever the aborts miss) and report a clean
                    // retryable failure.
                    self.abort_participants(&participants);
                    *self.state.lock() = TxnState::Aborted;
                    self.core.stats.counter("kv.prepare_deadline_aborts").inc();
                    return Err(if e.is_availability() {
                        Error::Unavailable(format!(
                            "prepare of txn {} at server {server} failed ({e}); \
                             transaction aborted",
                            self.id
                        ))
                    } else {
                        e
                    });
                }
            }
        }

        // All participants prepared: the transaction is committed as soon as
        // its commit timestamp is fixed *at the primary*.
        let commit_ts = self.core.oracle.next_timestamp();

        // Phase two, commit point: the primary, with the larger resolve
        // budget — once everyone is prepared, pounding on the primary is far
        // cheaper than surfacing an indeterminate commit.
        let decide_t0 = timing.then(clock::now);
        let decide_resp = self.core.call_retry(
            primary,
            KvRequest::Commit {
                txn: self.id,
                commit_ts,
            },
            self.core.cfg.commit_resolve_attempts,
        );
        if let Some(t0) = decide_t0 {
            self.core.hot.commit_decide_us.record(clock::elapsed_us(t0));
        }
        let commit_ts = match decide_resp {
            Ok(KvResponse::Committed { commit_ts }) => commit_ts,
            Ok(KvResponse::Aborted) => {
                // The primary's reaper presumed abort before our commit
                // arrived (lease expired).  Nothing committed anywhere:
                // secondaries never commit before the primary.
                self.abort_participants(&participants);
                *self.state.lock() = TxnState::Aborted;
                self.core.hot.txn_conflicts.inc();
                count(TraceCounter::Conflicts, 1);
                return Err(Error::Conflict(format!(
                    "txn {} aborted by the prepare-lease reaper before commit reached \
                     the primary",
                    self.id
                )));
            }
            Ok(KvResponse::ServerError { message }) => {
                // The primary could not log the commit decision, so it was
                // not applied (log-before-apply); the transaction is still
                // merely prepared.  Abort it cleanly rather than leave it to
                // the reaper's lease expiry.
                self.abort_participants(&participants);
                *self.state.lock() = TxnState::Aborted;
                return Err(Error::Io(message));
            }
            Ok(other) => {
                *self.state.lock() = TxnState::Aborted;
                return Err(Error::Internal(format!(
                    "unexpected commit response: {other:?}"
                )));
            }
            Err(e) => {
                // The commit decision is in flight but unconfirmed: the
                // primary may have installed it, or its reaper may abort it.
                // Only the primary knows; blindly retrying the transaction
                // could double-apply, so surface the in-doubt state.
                self.core.stats.counter("kv.commit_indeterminate").inc();
                return Err(Error::Indeterminate(format!(
                    "commit of txn {} unconfirmed by primary server {primary}: {e}",
                    self.id
                )));
            }
        };

        // Phase two, secondaries: best-effort, as one round (the outcome no
        // longer depends on these calls).  The transaction is durably
        // committed at the primary; a secondary that misses its commit will
        // adopt it from the primary through the reaper.
        let secondary_commits: Vec<_> = participants[1..]
            .iter()
            .map(|&s| {
                let commit = KvRequest::Commit {
                    txn: self.id,
                    commit_ts,
                };
                (s, commit)
            })
            .collect();
        let apply_t0 = timing.then(clock::now);
        let results = self
            .core
            .call_round_retry(&secondary_commits, self.core.cfg.rpc_max_attempts);
        if let Some(t0) = apply_t0 {
            self.core.hot.commit_apply_us.record(clock::elapsed_us(t0));
        }
        for resp in results {
            if !matches!(resp, Ok(KvResponse::Committed { .. })) {
                // Lost or refused: the reaper will converge this
                // participant.  The commit itself already succeeded.
                self.core
                    .stats
                    .counter("kv.commit_lagging_participants")
                    .inc();
            }
        }
        *self.state.lock() = TxnState::Committed;
        self.core.hot.txn_committed.inc();
        Ok(commit_ts)
    }

    /// Best-effort abort round used when a commit fails after its prepares
    /// went out.  Abort is idempotent and deduplicated server-side, and
    /// participants that miss the message are cleaned up by the
    /// prepare-lease reaper.
    fn abort_participants(&self, participants: &[ServerId]) {
        let aborts: Vec<_> = participants
            .iter()
            .map(|&s| (s, KvRequest::Abort { txn: self.id }))
            .collect();
        let _ = self
            .core
            .call_round_retry(&aborts, self.core.cfg.rpc_max_attempts);
    }

    /// Aborts the transaction, discarding its buffered writes.
    ///
    /// Because writes are buffered at the client until commit, aborting an
    /// active transaction requires no communication.
    pub fn abort(self) {
        if self.state() == TxnState::Active {
            *self.state.lock() = TxnState::Aborted;
            self.core.stats.counter("kv.txn_user_aborts").inc();
        }
        self.release_snapshot();
    }

    fn release_snapshot(&self) {
        let mut registered = self.snapshot_registered.lock();
        if *registered {
            self.core.snapshots.unregister(self.start_ts);
            *registered = false;
        }
    }
}

impl Drop for Txn {
    fn drop(&mut self) {
        // A dropped active transaction holds no server-side state (writes
        // are buffered locally and locks only exist during commit), so only
        // the snapshot registration needs cleaning up.
        self.release_snapshot();
    }
}

/// Exponential-ish backoff between lock retries.
fn backoff(base_us: u64, attempt: usize) {
    if base_us == 0 {
        std::thread::yield_now();
    } else {
        let us = base_us.saturating_mul(attempt.min(16) as u64);
        std::thread::sleep(Duration::from_micros(us));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::KvDatabase;

    #[test]
    fn methods_take_shared_reference() {
        let db = KvDatabase::with_servers(2);
        let client = db.client();
        let t = client.begin();
        let r1 = &t;
        let r2 = &t;
        r1.put(ObjectId::new(1, 1), Bytes::from_static(b"a"))
            .unwrap();
        assert_eq!(
            r2.get(ObjectId::new(1, 1)).unwrap().as_deref(),
            Some(&b"a"[..])
        );
        assert_eq!(t.write_count(), 1);
        t.commit().unwrap();
    }

    #[test]
    fn use_after_commit_rejected() {
        let db = KvDatabase::with_servers(1);
        let client = db.client();
        let t = client.begin();
        t.put(ObjectId::new(1, 1), Bytes::from_static(b"a"))
            .unwrap();
        // `commit` consumes the transaction, so using it afterwards is a
        // compile error; the runtime guard is exercised through `state`.
        assert_eq!(t.state(), TxnState::Active);
        t.commit().unwrap();
    }

    #[test]
    fn read_rpcs_counted() {
        let db = KvDatabase::with_servers(2);
        let client = db.client();
        let t = client.begin();
        let _ = t.get(ObjectId::new(1, 1)).unwrap();
        let _ = t.get(ObjectId::new(1, 2)).unwrap();
        t.put(ObjectId::new(1, 3), Bytes::from_static(b"x"))
            .unwrap();
        let _ = t.get(ObjectId::new(1, 3)).unwrap(); // served from write buffer
        assert_eq!(t.read_rpcs(), 2);
        t.commit().unwrap();
    }

    /// Commits `value` at `obj` in a transaction of its own.
    fn seed(db: &KvDatabase, obj: ObjectId, value: &'static [u8]) {
        let t = db.client().begin();
        t.put(obj, Bytes::from_static(value)).unwrap();
        t.commit().unwrap();
    }

    #[test]
    fn second_read_of_an_object_sends_no_rpc() {
        let db = KvDatabase::with_servers(2);
        let obj = ObjectId::new(1, 1);
        seed(&db, obj, b"v");
        let hits = db.stats().counter("kv.get_cache_hits");
        let t = db.client().begin();
        assert_eq!(t.get(obj).unwrap().as_deref(), Some(&b"v"[..]));
        assert_eq!((t.read_rpcs(), hits.get()), (1, 0));
        assert_eq!(t.get(obj).unwrap().as_deref(), Some(&b"v"[..]));
        assert_eq!((t.read_rpcs(), hits.get()), (1, 1));
        // An absent object is cached too.
        assert_eq!(t.get(ObjectId::new(1, 2)).unwrap(), None);
        assert_eq!(t.get(ObjectId::new(1, 2)).unwrap(), None);
        assert_eq!((t.read_rpcs(), hits.get()), (2, 2));
        t.commit().unwrap();
    }

    #[test]
    fn buffered_writes_win_over_cached_reads() {
        let db = KvDatabase::with_servers(1);
        let (a, b) = (ObjectId::new(1, 1), ObjectId::new(1, 2));
        seed(&db, a, b"old");
        seed(&db, b, b"old");
        let t = db.client().begin();
        assert!(t.get(a).unwrap().is_some());
        assert!(t.get(b).unwrap().is_some());
        t.put(a, Bytes::from_static(b"new")).unwrap();
        t.delete(b).unwrap();
        assert_eq!(t.get(a).unwrap().as_deref(), Some(&b"new"[..]));
        assert_eq!(t.get(b).unwrap(), None);
        assert_eq!(t.read_rpcs(), 2);
        t.commit().unwrap();
    }

    #[test]
    fn locked_replies_are_never_cached() {
        let mut cfg = yesquel_common::YesquelConfig::with_servers(1);
        cfg.kv.lock_acquire_retries = 2;
        cfg.kv.lock_backoff_us = 1;
        let db = KvDatabase::new(cfg);
        let obj = ObjectId::new(1, 1);
        seed(&db, obj, b"v");
        let t = db.client().begin();
        // A prepare restored from the log blocks every snapshot, this
        // transaction's included.
        let store = db.cluster().server(0).expect("server 0").store();
        let staged = WriteOp {
            obj,
            value: Some(Bytes::from_static(b"staged")),
        };
        store.prepare(999, t.start_ts(), &[staged]).unwrap();
        assert!(matches!(t.get(obj), Err(Error::LockTimeout(_))));
        let rpcs = t.read_rpcs();
        assert_eq!(rpcs, 3, "one attempt plus two retries");
        store.abort(999).unwrap();
        // The refused reads left nothing behind: the next read asks the
        // server again, and only its answer is cached.
        assert_eq!(t.get(obj).unwrap().as_deref(), Some(&b"v"[..]));
        assert_eq!(t.read_rpcs(), rpcs + 1);
        assert_eq!(t.get(obj).unwrap().as_deref(), Some(&b"v"[..]));
        assert_eq!(t.read_rpcs(), rpcs + 1);
        t.commit().unwrap();
    }

    #[test]
    fn a_round_resends_only_its_failed_request() {
        use yesquel_rpc::{FaultPlan, TransportKind};
        let cfg = yesquel_common::YesquelConfig::with_servers(2);
        // Server 1 rejects one message while down; the next one restarts it
        // (the restarting message counts as the second reject) and goes
        // through.
        let plan = FaultPlan {
            restart_after_rejects: Some(2),
            ..FaultPlan::healthy()
        };
        let db =
            KvDatabase::with_faults(cfg, TransportKind::Direct, vec![FaultPlan::healthy(), plan]);
        let objs: Vec<ObjectId> = (0..16).map(|o| ObjectId::new(1, o)).collect();
        let a = *objs.iter().find(|o| o.home_server(2) == 0).unwrap();
        let b = *objs.iter().find(|o| o.home_server(2) == 1).unwrap();
        let requests = |s: usize| {
            db.stats()
                .counter(&format!("rpc.server.{s}.requests"))
                .get()
        };
        let rejects = db.stats().counter("rpc.fault.crash_reject");
        db.faults().unwrap().crash(1);
        let (a0, b0) = (requests(0), requests(1));

        let t = db.client().begin();
        t.put(a, Bytes::from_static(b"a")).unwrap();
        t.put(b, Bytes::from_static(b"b")).unwrap();
        t.commit()
            .expect("the retried prepare lets the commit through");

        assert_eq!(rejects.get(), 1, "server 1 rejected one prepare");
        assert_eq!(db.stats().counter("rpc.retries").get(), 1);
        // Server 0 saw its prepare once (only the failed request was
        // resent) and then the commit; server 1 the retried prepare and
        // its commit.
        assert_eq!(requests(0) - a0, 2);
        assert_eq!(requests(1) - b0, 2);
        let t = db.client().begin();
        assert_eq!(t.get(a).unwrap().as_deref(), Some(&b"a"[..]));
        assert_eq!(t.get(b).unwrap().as_deref(), Some(&b"b"[..]));
        t.commit().unwrap();
    }

    #[test]
    fn a_full_scan_stays_within_the_cache_cap() {
        let db = KvDatabase::with_servers(2);
        let n = 4 * READ_CACHE_CAP as u64;
        let t = db.client().begin();
        for oid in 0..n {
            t.put(ObjectId::new(1, oid), Bytes::from_static(b"row"))
                .unwrap();
        }
        t.commit().unwrap();
        let t = db.client().begin();
        for oid in 0..n {
            assert!(t.get(ObjectId::new(1, oid)).unwrap().is_some());
            assert!(t.buffers.lock().reads.len() <= READ_CACHE_CAP);
        }
        assert_eq!(t.read_rpcs(), n);
        // The newest reads are still cached; the oldest were evicted.
        let _ = t.get(ObjectId::new(1, n - 1)).unwrap();
        assert_eq!(t.read_rpcs(), n);
        let _ = t.get(ObjectId::new(1, 0)).unwrap();
        assert_eq!(t.read_rpcs(), n + 1);
        t.commit().unwrap();
    }
}
