//! Per-server multi-version storage with prepare locks.
//!
//! Each storage server owns one [`ServerStore`]: a map from [`ObjectId`] to
//! the object's committed [`VersionChain`] plus, while a transaction is
//! between its prepare and commit phases, a **prepare lock** holding the
//! staged new value.  The store also owns the server's non-transactional
//! allocation counters (used for node-id and row-id allocation).
//!
//! ## Lock striping
//!
//! The store is **lock-striped**: objects are hash-partitioned over
//! [`SHARD_COUNT`] shards, each behind its own mutex, and statistics are
//! plain atomics.  The paper's headline property — a warm client touches one
//! server per point read — only buys scalability if that one server does not
//! serialize every request behind a single lock; with striping, concurrent
//! gets to different objects proceed in parallel, and the per-request cost
//! stays flat as client concurrency grows (the scale-independence argument
//! of the SCADS line of work).
//!
//! Multi-object operations (`prepare`, `commit_one_phase`) acquire the
//! shards they touch in **ascending shard order**, which makes concurrent
//! multi-shard validations deadlock-free.  `commit`/`abort` release locks
//! shard by shard; a reader that catches a transaction between two shards
//! simply sees a still-held prepare lock and retries (or reads past it, when
//! its snapshot predates the prepare — see [`ServerStore::get`]), exactly as
//! it would had the commit message not arrived at that server yet —
//! per-object atomicity (the invariant snapshot isolation needs) is
//! preserved by the per-shard critical sections.
//!
//! ## Durability
//!
//! When constructed with a write-ahead log ([`ServerStore::with_wal`]),
//! every state transition a client can observe — a prepare ack, a commit, an
//! abort, an allocation — is appended to the log **before** it is
//! acknowledged or becomes visible, and the append returns only once the
//! record is durable per the configured fsync policy.  2PC decision records
//! (commit, abort, presumed abort) are appended while holding the outcomes
//! lock, so log order always matches the order in which this store decided
//! transaction fates; replaying the log after an amnesia crash therefore
//! reconstructs exactly the acknowledged history.  One-phase commits append
//! while holding their shard guards, which orders them against every
//! conflicting operation for the same reason.  GC is the one deliberately
//! volatile operation: versions it dropped reappear after recovery (a
//! harmless superset of committed state) until the next checkpoint prunes
//! them from the log.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::{Mutex, MutexGuard, RwLock};
use yesquel_common::ids::{shard_index, splitmix64};
use yesquel_common::{ObjectId, Result, ServerId, Timestamp, TxnId};
use yesquel_wal::{CheckpointSnapshot, PreparedImage, Wal, WalRecord, WalWrite};

use crate::mvcc::VersionChain;
use crate::protocol::WriteOp;

/// Number of lock stripes per server store.  Power of two; sized so that a
/// few dozen client threads rarely collide on a stripe while keeping the
/// per-store footprint negligible.
pub const SHARD_COUNT: usize = 32;

/// Result of reading an object at a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadOutcome {
    /// The visible value (or `None` if unwritten/deleted at the snapshot).
    Value(Option<Bytes>),
    /// The object is locked by a transaction prepared at or before the
    /// snapshot; retry shortly.
    Locked,
}

/// Result of prepare / one-phase-commit validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrepareOutcome {
    /// Validation passed and locks are held.
    Prepared,
    /// Validation failed; nothing is locked.
    Conflict(String),
}

/// Result of a one-phase commit.  Distinct from [`PrepareOutcome`] because a
/// deduplicated retry must report the *original* commit timestamp, not the
/// one freshly drawn for the retry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommitOnePhaseOutcome {
    /// Validation passed and the writes are installed at this timestamp.
    Committed(Timestamp),
    /// Validation failed (or the transaction had already aborted); nothing
    /// was installed.
    Conflict(String),
}

/// A prepare lock: the owning transaction, the value it intends to install,
/// and the oracle timestamp drawn while the prepare was handled.  Snapshots
/// older than `prepared_at` read past the lock ([`ServerStore::get`]);
/// `0` blocks every reader.
#[derive(Debug, Clone)]
struct PrepareLock {
    txn: TxnId,
    staged: Option<Bytes>,
    prepared_at: Timestamp,
}

/// Book-keeping for a transaction between its prepare and commit phases.
#[derive(Debug, Clone)]
struct PreparedTxn {
    /// Objects this transaction holds prepare locks on.
    objs: Vec<ObjectId>,
    /// Snapshot timestamp the prepare validated against (carried into
    /// checkpoint images so a recovered prepare is indistinguishable from a
    /// live one).
    start_ts: Timestamp,
    /// The transaction's primary participant (2PC commit point).
    primary: ServerId,
    /// When the coordinator's lease expires and the reaper may act.
    lease_deadline: Instant,
}

/// Recorded fate of a finished transaction, kept in a bounded FIFO so that
/// retried or duplicated prepare / commit / abort messages are recognized
/// and answered idempotently instead of re-applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnOutcome {
    /// The transaction committed here at this timestamp.
    Committed(Timestamp),
    /// The transaction aborted here (explicitly or by presumed abort).
    Aborted,
}

/// Result of applying a `Commit` message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitOutcome {
    /// The staged writes were installed (or had already been installed by an
    /// earlier delivery of the same commit) at this timestamp.
    Committed(Timestamp),
    /// The transaction was already aborted here — its lease expired and the
    /// reaper presumed abort — so there was nothing to install.
    AlreadyAborted,
}

/// One-round [`splitmix64`] hasher for `TxnId` keys.  The outcome and
/// prepared tables sit on the commit hot path, where SipHash (the `HashMap`
/// default) is measurable; a single multiply-xorshift round gives full
/// avalanche on a 64-bit id for a fraction of the cost.
#[derive(Default, Clone)]
struct TxnIdHasher(u64);

impl std::hash::Hasher for TxnIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("TxnId keys hash via write_u64");
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = splitmix64(x);
    }
}

type TxnIdMap<V> = HashMap<TxnId, V, std::hash::BuildHasherDefault<TxnIdHasher>>;

/// Bounded FIFO of transaction outcomes.
struct OutcomeTable {
    map: TxnIdMap<TxnOutcome>,
    order: VecDeque<TxnId>,
    cap: usize,
}

impl OutcomeTable {
    fn new(cap: usize) -> Self {
        OutcomeTable {
            map: TxnIdMap::default(),
            order: VecDeque::new(),
            cap: cap.max(16),
        }
    }

    fn get(&self, txn: TxnId) -> Option<TxnOutcome> {
        self.map.get(&txn).copied()
    }

    /// Records an outcome.  A `Committed` record is never downgraded: a
    /// stale abort arriving after the commit installed must not rewrite
    /// history.
    fn record(&mut self, txn: TxnId, outcome: TxnOutcome) {
        match self.map.entry(txn) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                if !matches!(e.get(), TxnOutcome::Committed(_)) {
                    e.insert(outcome);
                }
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(outcome);
                self.order.push_back(txn);
                if self.order.len() > self.cap {
                    if let Some(old) = self.order.pop_front() {
                        self.map.remove(&old);
                    }
                }
            }
        }
    }

    /// The retained outcomes in FIFO order, as checkpoint images
    /// (`Some(ts)` committed, `None` aborted).  Replaying these through
    /// [`OutcomeTable::record`] in order reconstructs the table exactly,
    /// eviction behavior included.
    fn fifo(&self) -> Vec<(TxnId, Option<Timestamp>)> {
        self.order
            .iter()
            .filter_map(|txn| {
                self.map.get(txn).map(|o| match o {
                    TxnOutcome::Committed(ts) => (*txn, Some(*ts)),
                    TxnOutcome::Aborted => (*txn, None),
                })
            })
            .collect()
    }

    fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
    }
}

/// State of one object on one server.
#[derive(Debug, Default, Clone)]
struct ObjectState {
    chain: VersionChain,
    lock: Option<PrepareLock>,
}

/// Aggregate statistics of one server store.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Number of `Get` requests served.
    pub gets: u64,
    /// Number of prepares that acquired locks.
    pub prepares: u64,
    /// Number of commits applied (two-phase or one-phase).
    pub commits: u64,
    /// Number of aborts processed.
    pub aborts: u64,
    /// Number of validation failures.
    pub conflicts: u64,
    /// Number of reads that found a prepare lock and were refused.
    pub locked_reads: u64,
    /// Number of reads that found a prepare lock but were served the
    /// committed version, their snapshot predating the prepare.
    pub read_past: u64,
    /// Number of versions dropped by garbage collection.
    pub gc_dropped: u64,
    /// Number of retried or duplicated prepare/commit/abort messages that
    /// were answered from the outcome table instead of re-applied.
    pub dedup_hits: u64,
}

/// Atomic counters behind [`StoreStats`]; updated without any lock so the
/// striped hot paths never serialize on statistics.
#[derive(Default)]
struct StatsCells {
    gets: AtomicU64,
    prepares: AtomicU64,
    commits: AtomicU64,
    aborts: AtomicU64,
    conflicts: AtomicU64,
    locked_reads: AtomicU64,
    read_past: AtomicU64,
    gc_dropped: AtomicU64,
    dedup_hits: AtomicU64,
}

impl StatsCells {
    fn snapshot(&self) -> StoreStats {
        StoreStats {
            gets: self.gets.load(Ordering::Relaxed),
            prepares: self.prepares.load(Ordering::Relaxed),
            commits: self.commits.load(Ordering::Relaxed),
            aborts: self.aborts.load(Ordering::Relaxed),
            conflicts: self.conflicts.load(Ordering::Relaxed),
            locked_reads: self.locked_reads.load(Ordering::Relaxed),
            read_past: self.read_past.load(Ordering::Relaxed),
            gc_dropped: self.gc_dropped.load(Ordering::Relaxed),
            dedup_hits: self.dedup_hits.load(Ordering::Relaxed),
        }
    }
}

/// One lock stripe: the objects whose ids hash to this shard.
#[derive(Default)]
struct Shard {
    objects: HashMap<ObjectId, ObjectState>,
}

/// The storage of one server.  All methods are safe to call concurrently;
/// object state is partitioned over [`SHARD_COUNT`] independently locked
/// shards, so requests for different objects proceed in parallel.
pub struct ServerStore {
    shards: Vec<Mutex<Shard>>,
    /// In-flight prepared transactions (objects locked, primary, lease), so
    /// commit and abort do not need to scan the whole store.  Touched once
    /// per prepare/commit/abort, never per object, so one small mutex
    /// suffices.
    prepared: Mutex<TxnIdMap<PreparedTxn>>,
    /// Lock-free hint mirroring `prepared.len()`, so the piggybacked reaper
    /// can skip clock reads and locking entirely while no transaction is in
    /// the prepared state (the overwhelmingly common case).  Only a hint:
    /// the reaper re-checks under the real lock.
    prepared_hint: AtomicU64,
    /// Fates of finished transactions, for deduplicating retried and
    /// duplicated prepare / commit / abort messages.
    outcomes: Mutex<OutcomeTable>,
    /// Non-transactional allocation counters (a handful of objects per tree;
    /// not on the read/commit hot path).
    counters: Mutex<HashMap<ObjectId, u64>>,
    /// The write-ahead log, if this store is durable.  `None` keeps the
    /// store purely in-memory with zero logging overhead.
    wal: Option<Arc<Wal>>,
    /// Checkpoint gate: every mutating operation holds `read` across its
    /// append-then-apply critical section; [`ServerStore::checkpoint`] takes
    /// `write`, so a snapshot can never observe (and a log rotation can
    /// never drop) a record whose in-memory effect is still in flight.
    ckpt_gate: RwLock<()>,
    stats: StatsCells,
}

impl Default for ServerStore {
    fn default() -> Self {
        Self::new()
    }
}

impl ServerStore {
    /// Creates an empty store with the default outcome retention.
    pub fn new() -> Self {
        Self::with_outcome_retention(4_096)
    }

    /// Creates an empty store retaining up to `retention` transaction
    /// outcomes for message deduplication.
    pub fn with_outcome_retention(retention: usize) -> Self {
        Self::with_wal(retention, None)
    }

    /// Creates an empty store backed by `wal` (when `Some`): every
    /// acknowledgeable state change is logged before it is acknowledged.
    /// Call [`ServerStore::replay`] with the log's recovered records to
    /// restore pre-crash state.
    pub fn with_wal(retention: usize, wal: Option<Arc<Wal>>) -> Self {
        ServerStore {
            shards: (0..SHARD_COUNT)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            prepared: Mutex::new(TxnIdMap::default()),
            prepared_hint: AtomicU64::new(0),
            outcomes: Mutex::new(OutcomeTable::new(retention)),
            counters: Mutex::new(HashMap::new()),
            wal,
            ckpt_gate: RwLock::new(()),
            stats: StatsCells::default(),
        }
    }

    /// The write-ahead log backing this store, if any.
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.wal.as_ref()
    }

    /// Appends to the write-ahead log (durable per the log's fsync policy
    /// before returning), or does nothing for an in-memory store.
    fn wal_append(&self, rec: &WalRecord) -> Result<()> {
        match &self.wal {
            Some(w) => w.append(rec),
            None => Ok(()),
        }
    }

    /// Shard index of an object.  Mixes both halves of the id so that the
    /// nodes of one tree spread over the stripes.
    fn shard_of(&self, obj: ObjectId) -> usize {
        shard_index(obj.tree, obj.oid, 0x5851_f42d_4c95_7f2d, SHARD_COUNT)
    }

    /// Locks, in ascending shard order, every shard touched by `writes`.
    /// Returns the sorted deduplicated shard ids alongside their guards.
    fn lock_shards_for(&self, writes: &[WriteOp]) -> Vec<(usize, MutexGuard<'_, Shard>)> {
        let mut ids: Vec<usize> = writes.iter().map(|w| self.shard_of(w.obj)).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.into_iter()
            .map(|i| (i, self.shards[i].lock()))
            .collect()
    }

    /// The guard covering `obj` within a `lock_shards_for` result.
    fn guard_for<'a, 'g>(
        &self,
        guards: &'a mut [(usize, MutexGuard<'g, Shard>)],
        obj: ObjectId,
    ) -> &'a mut Shard {
        let shard = self.shard_of(obj);
        let pos = guards
            .binary_search_by_key(&shard, |(i, _)| *i)
            .expect("object's shard must be among the locked shards");
        &mut guards[pos].1
    }

    /// Reads `obj` at snapshot `ts`.
    ///
    /// A prepare lock blocks only snapshots at or after its `prepared_at`;
    /// an older snapshot is served the committed version at `ts`.  This is
    /// exact, not a guess about the preparing transaction's fate:
    ///
    /// * `prepared_at` is drawn from the deployment oracle while the server
    ///   handles the prepare, before it acknowledges it.  The coordinator
    ///   draws `commit_ts` from the same strictly increasing oracle only
    ///   after every participant acknowledged, so `commit_ts > prepared_at`
    ///   at every participant.  Hence `ts < prepared_at` implies
    ///   `ts < commit_ts`: the transaction's writes are invisible at `ts`
    ///   whether it commits or aborts.
    /// * Nothing else can install a version at or below `ts` while the lock
    ///   is held: other writers fail validation against it, and whatever
    ///   committed before the lock was taken is already in the chain (a
    ///   one-phase commit draws its timestamp and installs under the shard
    ///   guard, see [`ServerStore::commit_one_phase`]).  So the answer is
    ///   the one the reader would get after the lock is released: reads at
    ///   a snapshot stay repeatable.
    /// * A duplicate prepare keeps the smaller `prepared_at` (a late
    ///   duplicate may arrive after `commit_ts` was drawn), and prepares
    ///   restored from the log carry `0`, blocking every reader.
    pub fn get(&self, obj: ObjectId, ts: Timestamp) -> ReadOutcome {
        self.stats.gets.fetch_add(1, Ordering::Relaxed);
        let shard = self.shards[self.shard_of(obj)].lock();
        match shard.objects.get(&obj) {
            None => ReadOutcome::Value(None),
            Some(state) => match &state.lock {
                Some(lock) if ts >= lock.prepared_at => {
                    self.stats.locked_reads.fetch_add(1, Ordering::Relaxed);
                    ReadOutcome::Locked
                }
                Some(_) => {
                    self.stats.read_past.fetch_add(1, Ordering::Relaxed);
                    ReadOutcome::Value(state.chain.read_at(ts))
                }
                None => ReadOutcome::Value(state.chain.read_at(ts)),
            },
        }
    }

    /// Validates and locks `writes` on behalf of transaction `txn` reading
    /// at `start_ts`, with a generous lease, this server as primary, and
    /// locks that block every reader (`prepared_at` 0).  Convenience
    /// wrapper used by single-store tests; the server dispatch path goes
    /// through [`ServerStore::prepare_leased`].
    pub fn prepare(
        &self,
        txn: TxnId,
        start_ts: Timestamp,
        writes: &[WriteOp],
    ) -> Result<PrepareOutcome> {
        self.prepare_leased(txn, start_ts, writes, 0, Duration::from_secs(3600), 0)
    }

    /// Validates and locks `writes` on behalf of transaction `txn` reading
    /// at `start_ts`.  Either all writes are locked or none are.  The locks
    /// are leased: if neither `Commit` nor `Abort` arrives within `lease`,
    /// the reaper may resolve the transaction through its `primary`
    /// participant (presumed abort).  `prepared_at` must be an oracle
    /// timestamp drawn before the prepare is acknowledged; snapshots older
    /// than it read past the locks ([`ServerStore::get`]).
    ///
    /// Idempotent under retries and duplicate deliveries: re-preparing an
    /// already-prepared transaction refreshes its lease, keeps the smaller
    /// `prepared_at`, and reports `Prepared`; re-preparing one that already
    /// committed reports `Prepared` (the coordinator will proceed to a
    /// deduplicated commit); re-preparing one that was already aborted
    /// reports a conflict so the coordinator cannot resurrect a reaped
    /// transaction.
    ///
    /// Durable stores log the prepare — staged writes, primary, snapshot —
    /// **before** reporting `Prepared`, so a crash after the ack leaves the
    /// prepared state (and the coordinator's ability to commit it)
    /// recoverable.  An `Err` means the log append failed; nothing is
    /// acknowledged and the locks taken for this prepare are released.
    pub fn prepare_leased(
        &self,
        txn: TxnId,
        start_ts: Timestamp,
        writes: &[WriteOp],
        primary: ServerId,
        lease: Duration,
        prepared_at: Timestamp,
    ) -> Result<PrepareOutcome> {
        match self.outcomes.lock().get(txn) {
            Some(TxnOutcome::Committed(_)) => {
                self.stats.dedup_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(PrepareOutcome::Prepared);
            }
            Some(TxnOutcome::Aborted) => {
                self.stats.dedup_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(PrepareOutcome::Conflict(format!(
                    "txn {txn} was already aborted (presumed abort)"
                )));
            }
            None => {}
        }
        let _ckpt = self.ckpt_gate.read();
        let mut guards = self.lock_shards_for(writes);
        // Validation pass: no lock held by another transaction, and no
        // committed version newer than the snapshot (first-committer-wins).
        for w in writes {
            let shard = self.guard_for(&mut guards, w.obj);
            if let Some(reason) = Self::validate_one(shard, txn, start_ts, w) {
                self.stats.conflicts.fetch_add(1, Ordering::Relaxed);
                return Ok(PrepareOutcome::Conflict(reason));
            }
        }
        // Lock pass.
        let mut locked = Vec::with_capacity(writes.len());
        for w in writes {
            let shard = self.guard_for(&mut guards, w.obj);
            let state = shard.objects.entry(w.obj).or_default();
            // Validation admitted only our own lock; a duplicate keeps the
            // earlier (smaller) `prepared_at`.
            let prepared_at = match &state.lock {
                Some(held) => held.prepared_at.min(prepared_at),
                None => prepared_at,
            };
            state.lock = Some(PrepareLock {
                txn,
                staged: w.value.clone(),
                prepared_at,
            });
            locked.push(w.obj);
        }
        drop(guards);
        // Log before the ack, but after dropping the shard guards: the
        // prepare locks already block conflicting validations, so nothing
        // can slip past while the (possibly fsync-blocking) append runs, and
        // same-shard readers are not stalled behind the disk.  The
        // checkpoint gate is still held, so a checkpoint cannot rotate the
        // log between this append and the prepared-table insert below.
        if let Err(e) = self.wal_append(&WalRecord::Prepare {
            txn,
            start_ts,
            primary,
            writes: Self::to_wal_writes(writes),
        }) {
            // The prepare is not acknowledged; roll the locks back.
            self.release_locks_of(txn, writes.iter().map(|w| w.obj));
            return Err(e);
        }
        // Insert (not extend): a duplicate prepare carries the same writes,
        // so replacing the entry both deduplicates the object list and
        // refreshes the coordinator's lease.
        let replaced = self.prepared.lock().insert(
            txn,
            PreparedTxn {
                objs: locked,
                start_ts,
                primary,
                lease_deadline: Instant::now() + lease,
            },
        );
        if replaced.is_none() {
            self.prepared_hint.fetch_add(1, Ordering::Relaxed);
        }
        self.stats.prepares.fetch_add(1, Ordering::Relaxed);
        Ok(PrepareOutcome::Prepared)
    }

    /// Converts protocol write-ops into their log representation.
    fn to_wal_writes(writes: &[WriteOp]) -> Vec<WalWrite> {
        writes
            .iter()
            .map(|w| WalWrite {
                obj: w.obj,
                value: w.value.clone(),
            })
            .collect()
    }

    /// Releases any prepare locks held by `txn` on `objs` (rollback path).
    fn release_locks_of(&self, txn: TxnId, objs: impl Iterator<Item = ObjectId>) {
        for obj in objs {
            let mut shard = self.shards[self.shard_of(obj)].lock();
            if let Some(state) = shard.objects.get_mut(&obj) {
                if state.lock.as_ref().map(|l| l.txn == txn).unwrap_or(false) {
                    state.lock = None;
                }
            }
        }
    }

    /// First-committer-wins and lock-conflict validation of one write within
    /// its (locked) shard; returns a failure reason or `None`.
    fn validate_one(shard: &Shard, txn: TxnId, start_ts: Timestamp, w: &WriteOp) -> Option<String> {
        if let Some(state) = shard.objects.get(&w.obj) {
            if let Some(lock) = &state.lock {
                if lock.txn != txn {
                    return Some(format!("object {} locked by txn {}", w.obj, lock.txn));
                }
            }
            if state.chain.has_newer_than(start_ts) {
                return Some(format!(
                    "object {} has a version newer than snapshot {}",
                    w.obj, start_ts
                ));
            }
        }
        None
    }

    /// Installs the versions staged by a successful prepare of `txn` at
    /// `commit_ts` and releases the locks.  Idempotent, as phase two must
    /// be: a re-delivered commit answers from the outcome table, and a
    /// commit for a transaction this store has never heard of is treated as
    /// presumed-aborted (the only way a commit can reference an unknown
    /// transaction is that the reaper already expired its prepare).
    ///
    /// Durable stores append the decision record — `Commit`, or `Abort` for
    /// the presumed-abort branch — while holding the outcomes lock and
    /// **before** recording it in memory.  Both halves of that ordering
    /// matter: a fate must never be observable (by a `TxnStatus` probe, and
    /// through it a secondary participant) before it is durable, and
    /// because every fate-deciding path serializes on the outcomes lock,
    /// the log's record order always matches the decision order, so replay
    /// reconstructs the same history even when a commit raced the reaper.
    pub fn commit(&self, txn: TxnId, commit_ts: Timestamp) -> Result<CommitOutcome> {
        let _ckpt = self.ckpt_gate.read();
        let entry = {
            let mut outcomes = self.outcomes.lock();
            // Fast path first: a live prepared entry.  A duplicate commit
            // racing us serializes on the outcomes lock, loses the removal,
            // and falls through to the outcome table, which we fill while
            // still holding that lock.  (Only fate-deciding paths remove
            // prepared entries, and all of them hold the outcomes lock, so
            // the entry cannot vanish between this check and the removal
            // after the append.)
            let is_prepared = self.prepared.lock().contains_key(&txn);
            if is_prepared {
                self.wal_append(&WalRecord::Commit { txn, commit_ts })?;
            }
            match self.prepared.lock().remove(&txn) {
                Some(p) => {
                    self.prepared_hint.fetch_sub(1, Ordering::Relaxed);
                    outcomes.record(txn, TxnOutcome::Committed(commit_ts));
                    p
                }
                None => {
                    // Not prepared here: either a duplicate delivery
                    // (answer from the outcome table) or a commit for a
                    // transaction this store never prepared (presume abort).
                    return match outcomes.get(txn) {
                        Some(TxnOutcome::Committed(ts)) => {
                            self.stats.dedup_hits.fetch_add(1, Ordering::Relaxed);
                            Ok(CommitOutcome::Committed(ts))
                        }
                        Some(TxnOutcome::Aborted) => {
                            self.stats.dedup_hits.fetch_add(1, Ordering::Relaxed);
                            Ok(CommitOutcome::AlreadyAborted)
                        }
                        None => {
                            // The presumed abort is itself a decision: make
                            // it durable before answering, or a post-crash
                            // duplicate of this commit could succeed after
                            // its coordinator was already told "aborted".
                            self.wal_append(&WalRecord::Abort { txn })?;
                            outcomes.record(txn, TxnOutcome::Aborted);
                            Ok(CommitOutcome::AlreadyAborted)
                        }
                    };
                }
            }
        };
        for obj in entry.objs {
            let mut shard = self.shards[self.shard_of(obj)].lock();
            if let Some(state) = shard.objects.get_mut(&obj) {
                match state.lock.take() {
                    Some(lock) if lock.txn == txn => {
                        state.chain.install(commit_ts, lock.staged);
                    }
                    other => {
                        // Lock stolen or missing: put it back if it belongs
                        // to someone else.  This cannot happen in the current
                        // protocol (locks are only released by their owner),
                        // but stay defensive.
                        state.lock = other.filter(|l| l.txn != txn);
                    }
                }
            }
        }
        self.stats.commits.fetch_add(1, Ordering::Relaxed);
        Ok(CommitOutcome::Committed(commit_ts))
    }

    /// Validates and installs `writes` in one step, at the commit timestamp
    /// `next_ts` draws.  Used by one-phase commit, where `next_ts` is the
    /// server-side oracle handle.
    ///
    /// The timestamp is drawn only once the shard guards are held, and the
    /// versions are installed before they drop.  Drawn earlier, a snapshot
    /// taken in the gap would be newer than the commit yet read the old
    /// version — and a write based on that read would then validate clean,
    /// losing this update.  A deduplicated retry draws nothing and reports
    /// the original timestamp.
    ///
    /// Durable stores append the record while still holding the shard
    /// guards, after validation and before installation: the guards order
    /// the append against every conflicting writer, and log-before-install
    /// means an `Err` return guarantees nothing was applied.  The append is
    /// the group-commit hot path — concurrent one-phase committers on
    /// disjoint shards coalesce into a single fsync.
    pub fn commit_one_phase(
        &self,
        txn: TxnId,
        start_ts: Timestamp,
        writes: &[WriteOp],
        next_ts: impl FnOnce() -> Timestamp,
    ) -> Result<CommitOnePhaseOutcome> {
        // Dedup: a retried one-phase commit (its first response was lost)
        // must report the original fate, not re-validate — re-validation
        // would see the transaction's own installed versions as "newer than
        // snapshot" and wrongly report a conflict.
        match self.outcomes.lock().get(txn) {
            Some(TxnOutcome::Committed(ts)) => {
                self.stats.dedup_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(CommitOnePhaseOutcome::Committed(ts));
            }
            Some(TxnOutcome::Aborted) => {
                self.stats.dedup_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(CommitOnePhaseOutcome::Conflict(format!(
                    "txn {txn} already aborted (duplicate one-phase commit)"
                )));
            }
            None => {}
        }
        let _ckpt = self.ckpt_gate.read();
        let mut guards = self.lock_shards_for(writes);
        for w in writes {
            let shard = self.guard_for(&mut guards, w.obj);
            if let Some(reason) = Self::validate_one(shard, txn, start_ts, w) {
                self.stats.conflicts.fetch_add(1, Ordering::Relaxed);
                // A conflict changes no state, so it is not logged; the
                // in-memory abort record only serves duplicate deliveries
                // within this incarnation.
                self.outcomes.lock().record(txn, TxnOutcome::Aborted);
                return Ok(CommitOnePhaseOutcome::Conflict(reason));
            }
        }
        let commit_ts = next_ts();
        self.wal_append(&WalRecord::CommitOnePhase {
            txn,
            commit_ts,
            writes: Self::to_wal_writes(writes),
        })?;
        for w in writes {
            let shard = self.guard_for(&mut guards, w.obj);
            let state = shard.objects.entry(w.obj).or_default();
            state.chain.install(commit_ts, w.value.clone());
        }
        // Record the fate before the shard guards drop so a racing duplicate
        // cannot slip between installation and the record.
        self.outcomes
            .lock()
            .record(txn, TxnOutcome::Committed(commit_ts));
        drop(guards);
        self.stats.commits.fetch_add(1, Ordering::Relaxed);
        Ok(CommitOnePhaseOutcome::Committed(commit_ts))
    }

    /// Releases every lock held by `txn` and discards its staged writes.
    /// Idempotent; records an `Aborted` outcome (never overwriting a
    /// commit) so duplicate prepares and commits of this transaction are
    /// refused from then on.
    ///
    /// Durable stores log the abort before it becomes observable (same
    /// outcomes-lock ordering as [`ServerStore::commit`]); a duplicate
    /// abort of an already-aborted, no-longer-prepared transaction is
    /// answered without touching the log.
    pub fn abort(&self, txn: TxnId) -> Result<()> {
        let _ckpt = self.ckpt_gate.read();
        let entry = {
            let mut outcomes = self.outcomes.lock();
            if let Some(TxnOutcome::Committed(_)) = outcomes.get(txn) {
                // A stale abort after the commit installed: ignore.
                self.stats.dedup_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
            let already_aborted = matches!(outcomes.get(txn), Some(TxnOutcome::Aborted));
            let is_prepared = self.prepared.lock().contains_key(&txn);
            if !already_aborted || is_prepared {
                self.wal_append(&WalRecord::Abort { txn })?;
            }
            let entry = self.prepared.lock().remove(&txn);
            if entry.is_some() {
                self.prepared_hint.fetch_sub(1, Ordering::Relaxed);
            }
            outcomes.record(txn, TxnOutcome::Aborted);
            entry
        };
        let Some(entry) = entry else {
            self.stats.aborts.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        };
        for obj in entry.objs {
            let mut shard = self.shards[self.shard_of(obj)].lock();
            if let Some(state) = shard.objects.get_mut(&obj) {
                if state.lock.as_ref().map(|l| l.txn == txn).unwrap_or(false) {
                    state.lock = None;
                }
            }
        }
        self.stats.aborts.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// What this store knows about `txn`'s fate (outcome table only; a
    /// still-prepared transaction reports `None` — see
    /// [`ServerStore::is_prepared`]).
    pub fn outcome(&self, txn: TxnId) -> Option<TxnOutcome> {
        self.outcomes.lock().get(txn)
    }

    /// True if `txn` is currently prepared (locks held) at this store.
    pub fn is_prepared(&self, txn: TxnId) -> bool {
        self.prepared.lock().contains_key(&txn)
    }

    /// Number of transactions currently holding prepare locks.
    pub fn prepared_count(&self) -> usize {
        self.prepared.lock().len()
    }

    /// Lock-free check for "is anything prepared at all", the reaper's
    /// fast-path gate.  Approximate during concurrent prepare/commit, exact
    /// when quiescent.
    pub fn has_prepared(&self) -> bool {
        self.prepared_hint.load(Ordering::Relaxed) != 0
    }

    /// Prepared transactions whose coordinator lease expired before `now`,
    /// with their primary participant.  Collected under the lock and
    /// returned by value so the caller (the reaper) can resolve them — which
    /// involves RPCs — without holding any store lock.
    pub fn expired_prepared(&self, now: Instant) -> Vec<(TxnId, ServerId)> {
        self.prepared
            .lock()
            .iter()
            .filter(|(_, p)| p.lease_deadline <= now)
            .map(|(txn, p)| (*txn, p.primary))
            .collect()
    }

    /// Committed version history of `obj`, newest first, as
    /// `(timestamp, value)` pairs.  White-box accessor for durability and
    /// double-apply assertions in the chaos tests.
    pub fn dump_versions(&self, obj: ObjectId) -> Vec<(Timestamp, Option<Bytes>)> {
        let shard = self.shards[self.shard_of(obj)].lock();
        shard
            .objects
            .get(&obj)
            .map(|state| {
                state
                    .chain
                    .versions()
                    .iter()
                    .map(|v| (v.ts, v.value.clone()))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Atomically adds `delta` to the counter at `obj`, returning the
    /// pre-increment value.  Durable stores log the post-increment value
    /// before acknowledging (replay takes the maximum, so concurrent
    /// allocations commute); losing an acknowledged allocation would hand
    /// out already-used ids after recovery.
    pub fn allocate(&self, obj: ObjectId, delta: u64) -> Result<u64> {
        let _ckpt = self.ckpt_gate.read();
        let (start, value) = {
            let mut g = self.counters.lock();
            let c = g.entry(obj).or_insert(0);
            let start = *c;
            *c += delta;
            (start, *c)
        };
        // On append failure the in-memory counter stays advanced: the ids
        // are burned, never re-issued, which is safe for id allocation.
        self.wal_append(&WalRecord::Alloc { obj, value })?;
        Ok(start)
    }

    /// Installs a version directly, bypassing concurrency control (bulk
    /// loading only).
    pub fn load_unchecked(&self, obj: ObjectId, ts: Timestamp, value: Bytes) -> Result<()> {
        let _ckpt = self.ckpt_gate.read();
        {
            let mut shard = self.shards[self.shard_of(obj)].lock();
            shard
                .objects
                .entry(obj)
                .or_default()
                .chain
                .install(ts, Some(value.clone()));
        }
        self.wal_append(&WalRecord::Load { obj, ts, value })
    }

    /// Drops every piece of volatile state — committed versions, prepare
    /// locks, the prepared table, the outcome table, allocation counters —
    /// as an amnesia crash would.  Statistics survive: they are
    /// observability, not state, and resetting them mid-chaos-run would
    /// hide what happened before the crash.
    pub fn wipe_volatile(&self) {
        let _gate = self.ckpt_gate.write();
        for shard in &self.shards {
            shard.lock().objects.clear();
        }
        self.prepared.lock().clear();
        self.prepared_hint.store(0, Ordering::Relaxed);
        self.outcomes.lock().clear();
        self.counters.lock().clear();
    }

    /// Replays the clean-prefix records recovered from the log into this
    /// store.  Must run on a freshly wiped (or freshly constructed) store
    /// before it serves traffic.  Recovered prepares get `lease` from now:
    /// their coordinators may be gone, and the presumed-abort reaper
    /// resolves them through their primary once the lease runs out.
    /// Returns the number of transaction fates restored.
    pub fn replay(&self, records: &[WalRecord], lease: Duration) -> u64 {
        let mut recovered = 0u64;
        for rec in records {
            match rec {
                WalRecord::Checkpoint(snap) => {
                    recovered += self.apply_checkpoint(snap, lease);
                }
                WalRecord::Prepare {
                    txn,
                    start_ts,
                    primary,
                    writes,
                } => {
                    // A prepare whose fate appears earlier in the log was
                    // already resolved; do not resurrect its locks.
                    if self.outcomes.lock().get(*txn).is_some() {
                        continue;
                    }
                    self.restore_prepared(*txn, *start_ts, *primary, writes, lease);
                }
                WalRecord::Commit { txn, commit_ts } => {
                    // Install the staged writes of the restored prepare; a
                    // commit record without one lost a race to an abort
                    // record earlier in the log and is skipped, exactly as
                    // the live path skipped it.
                    let entry = {
                        let mut outcomes = self.outcomes.lock();
                        let p = self.prepared.lock().remove(txn);
                        if p.is_some() {
                            self.prepared_hint.fetch_sub(1, Ordering::Relaxed);
                            outcomes.record(*txn, TxnOutcome::Committed(*commit_ts));
                        }
                        p
                    };
                    if let Some(entry) = entry {
                        for obj in entry.objs {
                            let mut shard = self.shards[self.shard_of(obj)].lock();
                            if let Some(state) = shard.objects.get_mut(&obj) {
                                if let Some(lock) = state.lock.take() {
                                    if lock.txn == *txn {
                                        state.chain.install(*commit_ts, lock.staged);
                                    } else {
                                        state.lock = Some(lock);
                                    }
                                }
                            }
                        }
                        recovered += 1;
                    }
                }
                WalRecord::CommitOnePhase {
                    txn,
                    commit_ts,
                    writes,
                } => {
                    if matches!(
                        self.outcomes.lock().get(*txn),
                        Some(TxnOutcome::Committed(_))
                    ) {
                        continue;
                    }
                    for w in writes {
                        let mut shard = self.shards[self.shard_of(w.obj)].lock();
                        shard
                            .objects
                            .entry(w.obj)
                            .or_default()
                            .chain
                            .install(*commit_ts, w.value.clone());
                    }
                    self.outcomes
                        .lock()
                        .record(*txn, TxnOutcome::Committed(*commit_ts));
                    recovered += 1;
                }
                WalRecord::Abort { txn } => {
                    if matches!(
                        self.outcomes.lock().get(*txn),
                        Some(TxnOutcome::Committed(_))
                    ) {
                        continue;
                    }
                    let entry = self.prepared.lock().remove(txn);
                    if entry.is_some() {
                        self.prepared_hint.fetch_sub(1, Ordering::Relaxed);
                    }
                    if let Some(entry) = entry {
                        self.release_locks_of(*txn, entry.objs.into_iter());
                    }
                    self.outcomes.lock().record(*txn, TxnOutcome::Aborted);
                    recovered += 1;
                }
                WalRecord::Alloc { obj, value } => {
                    let mut g = self.counters.lock();
                    let c = g.entry(*obj).or_insert(0);
                    *c = (*c).max(*value);
                }
                WalRecord::Load { obj, ts, value } => {
                    let mut shard = self.shards[self.shard_of(*obj)].lock();
                    shard
                        .objects
                        .entry(*obj)
                        .or_default()
                        .chain
                        .install(*ts, Some(value.clone()));
                }
            }
        }
        recovered
    }

    /// Restores one prepared transaction: its locks, staged writes, and
    /// prepared-table entry with a fresh lease.
    fn restore_prepared(
        &self,
        txn: TxnId,
        start_ts: Timestamp,
        primary: ServerId,
        writes: &[WalWrite],
        lease: Duration,
    ) {
        for w in writes {
            let mut shard = self.shards[self.shard_of(w.obj)].lock();
            let state = shard.objects.entry(w.obj).or_default();
            // The prepare's original timestamp is not logged, so a restored
            // lock blocks every reader.
            state.lock = Some(PrepareLock {
                txn,
                staged: w.value.clone(),
                prepared_at: 0,
            });
        }
        let replaced = self.prepared.lock().insert(
            txn,
            PreparedTxn {
                objs: writes.iter().map(|w| w.obj).collect(),
                start_ts,
                primary,
                lease_deadline: Instant::now() + lease,
            },
        );
        if replaced.is_none() {
            self.prepared_hint.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Applies a checkpoint snapshot (the first record of a rotated
    /// segment): version chains, counters, the outcome table in its
    /// original FIFO order, and in-flight prepares.
    fn apply_checkpoint(&self, snap: &CheckpointSnapshot, lease: Duration) -> u64 {
        for (obj, chain) in &snap.versions {
            let mut shard = self.shards[self.shard_of(*obj)].lock();
            let state = shard.objects.entry(*obj).or_default();
            for (ts, value) in chain {
                state.chain.install(*ts, value.clone());
            }
        }
        {
            let mut g = self.counters.lock();
            for (obj, value) in &snap.counters {
                let c = g.entry(*obj).or_insert(0);
                *c = (*c).max(*value);
            }
        }
        {
            let mut outcomes = self.outcomes.lock();
            for (txn, fate) in &snap.outcomes {
                let outcome = match fate {
                    Some(ts) => TxnOutcome::Committed(*ts),
                    None => TxnOutcome::Aborted,
                };
                outcomes.record(*txn, outcome);
            }
        }
        for p in &snap.prepared {
            self.restore_prepared(p.txn, p.start_ts, p.primary, &p.writes, lease);
        }
        snap.outcomes.len() as u64
    }

    /// Snapshots the entire store into a fresh log segment and truncates
    /// the older ones ([`Wal::checkpoint`]).  Takes the checkpoint gate in
    /// write mode plus every store lock, so the snapshot is a consistent
    /// cut: no operation can be between its log append and its in-memory
    /// application while the snapshot is taken.  No-op for an in-memory
    /// store.
    pub fn checkpoint(&self) -> Result<()> {
        let Some(wal) = self.wal.clone() else {
            return Ok(());
        };
        let _gate = self.ckpt_gate.write();
        let guards: Vec<MutexGuard<'_, Shard>> = self.shards.iter().map(|s| s.lock()).collect();
        let prepared = self.prepared.lock();
        let outcomes = self.outcomes.lock();
        let counters = self.counters.lock();
        let mut versions = Vec::new();
        for guard in &guards {
            for (obj, state) in &guard.objects {
                let chain: Vec<(Timestamp, Option<Bytes>)> = state
                    .chain
                    .versions()
                    .iter()
                    .map(|v| (v.ts, v.value.clone()))
                    .collect();
                if !chain.is_empty() {
                    versions.push((*obj, chain));
                }
            }
        }
        let prepared_images = prepared
            .iter()
            .map(|(txn, p)| PreparedImage {
                txn: *txn,
                start_ts: p.start_ts,
                primary: p.primary,
                writes: p
                    .objs
                    .iter()
                    .filter_map(|obj| {
                        guards[self.shard_of(*obj)]
                            .objects
                            .get(obj)
                            .and_then(|state| state.lock.as_ref())
                            .filter(|lock| lock.txn == *txn)
                            .map(|lock| WalWrite {
                                obj: *obj,
                                value: lock.staged.clone(),
                            })
                    })
                    .collect(),
            })
            .collect();
        let snap = CheckpointSnapshot {
            versions,
            counters: counters.iter().map(|(k, v)| (*k, *v)).collect(),
            outcomes: outcomes.fifo(),
            prepared: prepared_images,
        };
        wal.checkpoint(snap)
    }

    /// Garbage-collects old versions given the oldest active snapshot.
    /// Returns the number of versions dropped.  Shards are collected one at
    /// a time so GC never stalls the whole store.
    pub fn gc(&self, min_active_ts: Timestamp, keep_versions: usize) -> u64 {
        let mut dropped = 0u64;
        for shard in &self.shards {
            let mut g = shard.lock();
            let mut dead = Vec::new();
            for (obj, state) in g.objects.iter_mut() {
                dropped += state.chain.gc(min_active_ts, keep_versions) as u64;
                if state.lock.is_none() && state.chain.is_fully_dead(min_active_ts) {
                    dead.push(*obj);
                }
            }
            for obj in dead {
                g.objects.remove(&obj);
            }
        }
        self.stats.gc_dropped.fetch_add(dropped, Ordering::Relaxed);
        dropped
    }

    /// Snapshot of the store's statistics.
    pub fn stats(&self) -> StoreStats {
        self.stats.snapshot()
    }

    /// Number of objects currently stored.
    pub fn object_count(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().objects.len() as u64)
            .sum()
    }

    /// Total number of committed versions currently stored.
    pub fn version_count(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .objects
                    .values()
                    .map(|o| o.chain.len() as u64)
                    .sum::<u64>()
            })
            .sum()
    }

    /// Highest timestamp and transaction id observable in this store: the
    /// maximum over installed versions, prepare locks, prepared entries and
    /// retained outcomes.  The deployment layer calls this after recovery to
    /// advance the timestamp oracle past everything the previous incarnation
    /// issued — otherwise fresh snapshots could not see recovered versions,
    /// and reused transaction ids would collide with the outcome table.
    pub fn high_water(&self) -> (Timestamp, TxnId) {
        let mut ts: Timestamp = 0;
        let mut txn: TxnId = 0;
        for shard in &self.shards {
            let guard = shard.lock();
            for state in guard.objects.values() {
                if let Some(v) = state.chain.versions().last() {
                    ts = ts.max(v.ts);
                }
                if let Some(lock) = &state.lock {
                    txn = txn.max(lock.txn);
                }
            }
        }
        for (id, p) in self.prepared.lock().iter() {
            txn = txn.max(*id);
            ts = ts.max(p.start_ts);
        }
        for (id, commit_ts) in self.outcomes.lock().fifo() {
            txn = txn.max(id);
            if let Some(c) = commit_ts {
                ts = ts.max(c);
            }
        }
        (ts, txn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(o: u64) -> ObjectId {
        ObjectId::new(1, o)
    }

    fn w(o: u64, v: &str) -> WriteOp {
        WriteOp {
            obj: obj(o),
            value: Some(Bytes::copy_from_slice(v.as_bytes())),
        }
    }

    fn del(o: u64) -> WriteOp {
        WriteOp {
            obj: obj(o),
            value: None,
        }
    }

    #[test]
    fn prepare_commit_read_cycle() {
        let s = ServerStore::new();
        assert_eq!(
            s.prepare(1, 5, &[w(1, "a"), w(2, "b")]).unwrap(),
            PrepareOutcome::Prepared
        );
        // Reads see the lock, not the staged value.
        assert_eq!(s.get(obj(1), 100), ReadOutcome::Locked);
        s.commit(1, 10).unwrap();
        assert_eq!(
            s.get(obj(1), 100),
            ReadOutcome::Value(Some(Bytes::from_static(b"a")))
        );
        assert_eq!(s.get(obj(1), 9), ReadOutcome::Value(None));
        assert_eq!(s.object_count(), 2);
        assert_eq!(s.stats().commits, 1);
    }

    #[test]
    fn conflict_on_newer_version() {
        let s = ServerStore::new();
        assert_eq!(
            s.prepare(1, 5, &[w(1, "a")]).unwrap(),
            PrepareOutcome::Prepared
        );
        s.commit(1, 10).unwrap();
        // A transaction that started before ts 10 cannot overwrite object 1.
        match s.prepare(2, 5, &[w(1, "b")]).unwrap() {
            PrepareOutcome::Conflict(_) => {}
            other => panic!("expected conflict, got {other:?}"),
        }
        assert_eq!(s.stats().conflicts, 1);
        // A later snapshot can.
        assert_eq!(
            s.prepare(3, 11, &[w(1, "c")]).unwrap(),
            PrepareOutcome::Prepared
        );
        s.commit(3, 12).unwrap();
        assert_eq!(
            s.get(obj(1), 20),
            ReadOutcome::Value(Some(Bytes::from_static(b"c")))
        );
    }

    #[test]
    fn conflict_on_foreign_lock_and_abort_releases() {
        let s = ServerStore::new();
        assert_eq!(
            s.prepare(1, 5, &[w(1, "a")]).unwrap(),
            PrepareOutcome::Prepared
        );
        match s.prepare(2, 6, &[w(1, "b")]).unwrap() {
            PrepareOutcome::Conflict(msg) => assert!(msg.contains("locked")),
            other => panic!("expected conflict, got {other:?}"),
        }
        s.abort(1).unwrap();
        assert_eq!(s.get(obj(1), 100), ReadOutcome::Value(None));
        assert_eq!(
            s.prepare(2, 6, &[w(1, "b")]).unwrap(),
            PrepareOutcome::Prepared
        );
        s.commit(2, 7).unwrap();
        assert_eq!(
            s.get(obj(1), 100),
            ReadOutcome::Value(Some(Bytes::from_static(b"b")))
        );
    }

    #[test]
    fn delete_writes_tombstone() {
        let s = ServerStore::new();
        s.prepare(1, 1, &[w(1, "a")]).unwrap();
        s.commit(1, 2).unwrap();
        s.prepare(2, 3, &[del(1)]).unwrap();
        s.commit(2, 4).unwrap();
        assert_eq!(
            s.get(obj(1), 3),
            ReadOutcome::Value(Some(Bytes::from_static(b"a")))
        );
        assert_eq!(s.get(obj(1), 10), ReadOutcome::Value(None));
    }

    #[test]
    fn one_phase_commit_validates_and_installs() {
        let s = ServerStore::new();
        assert_eq!(
            s.commit_one_phase(1, 1, &[w(1, "a")], || 5).unwrap(),
            CommitOnePhaseOutcome::Committed(5)
        );
        assert_eq!(
            s.get(obj(1), 10),
            ReadOutcome::Value(Some(Bytes::from_static(b"a")))
        );
        // Stale snapshot conflicts.
        match s.commit_one_phase(2, 1, &[w(1, "b")], || 6).unwrap() {
            CommitOnePhaseOutcome::Conflict(_) => {}
            other => panic!("expected conflict, got {other:?}"),
        }
        assert_eq!(
            s.get(obj(1), 10),
            ReadOutcome::Value(Some(Bytes::from_static(b"a")))
        );
    }

    #[test]
    fn one_phase_commit_draws_its_timestamp_under_the_shard_guard() {
        let s = ServerStore::new();
        s.commit_one_phase(1, 1, &[w(1, "a")], || 2).unwrap();
        // While the timestamp is drawn, the written object's shard is held:
        // a reader probing it from another thread cannot get in before the
        // new version is installed.
        let shard = s.shard_of(obj(1));
        let outcome = s
            .commit_one_phase(2, 3, &[w(1, "b")], || {
                assert!(s.shards[shard].try_lock().is_none());
                4
            })
            .unwrap();
        assert_eq!(outcome, CommitOnePhaseOutcome::Committed(4));
    }

    fn prepare_at(s: &ServerStore, txn: TxnId, writes: &[WriteOp], prepared_at: Timestamp) {
        assert_eq!(
            s.prepare_leased(txn, 5, writes, 0, Duration::from_secs(60), prepared_at)
                .unwrap(),
            PrepareOutcome::Prepared
        );
    }

    #[test]
    fn snapshots_older_than_the_prepare_read_past_its_lock() {
        let s = ServerStore::new();
        s.commit_one_phase(1, 1, &[w(1, "old")], || 2).unwrap();
        prepare_at(&s, 7, &[w(1, "new")], 10);
        let old = ReadOutcome::Value(Some(Bytes::from_static(b"old")));
        assert_eq!(s.get(obj(1), 9), old);
        assert_eq!(s.get(obj(1), 1), ReadOutcome::Value(None));
        assert_eq!(s.get(obj(1), 10), ReadOutcome::Locked);
        assert_eq!(s.get(obj(1), 50), ReadOutcome::Locked);
        assert_eq!(s.stats().read_past, 2);
        assert_eq!(s.stats().locked_reads, 2);
        // The commit lands above `prepared_at`, so the older snapshot's
        // answer does not change: the read was repeatable.
        s.commit(7, 11).unwrap();
        assert_eq!(s.get(obj(1), 9), old);
        assert_eq!(
            s.get(obj(1), 11),
            ReadOutcome::Value(Some(Bytes::from_static(b"new")))
        );
    }

    #[test]
    fn duplicate_prepare_keeps_the_original_prepared_at() {
        let s = ServerStore::new();
        prepare_at(&s, 7, &[w(1, "a")], 10);
        // A late duplicate, delivered after the commit timestamp (say 12)
        // was drawn, must not let snapshots in 12..20 read past the lock.
        prepare_at(&s, 7, &[w(1, "a")], 20);
        assert_eq!(s.get(obj(1), 9), ReadOutcome::Value(None));
        assert_eq!(s.get(obj(1), 10), ReadOutcome::Locked);
        assert_eq!(s.get(obj(1), 15), ReadOutcome::Locked);
        assert_eq!(s.prepared_count(), 1);
    }

    #[test]
    fn replayed_prepares_block_every_reader() {
        let writes = vec![WalWrite {
            obj: obj(1),
            value: Some(Bytes::from_static(b"staged")),
        }];
        let from_log = ServerStore::new();
        from_log.replay(
            &[
                WalRecord::Load {
                    obj: obj(1),
                    ts: 0,
                    value: Bytes::from_static(b"seed"),
                },
                WalRecord::Prepare {
                    txn: 7,
                    start_ts: 5,
                    primary: 0,
                    writes: writes.clone(),
                },
            ],
            Duration::from_secs(60),
        );
        let from_checkpoint = ServerStore::new();
        from_checkpoint.replay(
            &[WalRecord::Checkpoint(Box::new(CheckpointSnapshot {
                versions: vec![(obj(1), vec![(0, Some(Bytes::from_static(b"seed")))])],
                counters: Vec::new(),
                outcomes: Vec::new(),
                prepared: vec![PreparedImage {
                    txn: 7,
                    start_ts: 5,
                    primary: 0,
                    writes,
                }],
            }))],
            Duration::from_secs(60),
        );
        for s in [&from_log, &from_checkpoint] {
            assert_eq!(s.prepared_count(), 1);
            assert_eq!(s.get(obj(1), 0), ReadOutcome::Locked);
            assert_eq!(s.get(obj(1), 1), ReadOutcome::Locked);
            assert_eq!(s.stats().read_past, 0);
        }
    }

    #[test]
    fn allocate_is_monotone() {
        let s = ServerStore::new();
        assert_eq!(s.allocate(obj(9), 10).unwrap(), 0);
        assert_eq!(s.allocate(obj(9), 5).unwrap(), 10);
        assert_eq!(s.allocate(obj(9), 1).unwrap(), 15);
        assert_eq!(s.allocate(obj(8), 1).unwrap(), 0);
    }

    #[test]
    fn gc_drops_old_versions_and_dead_objects() {
        let s = ServerStore::new();
        for i in 0..5u64 {
            s.prepare(i, 2 * i, &[w(1, &format!("v{i}"))]).unwrap();
            s.commit(i, 2 * i + 1).unwrap();
        }
        assert_eq!(s.version_count(), 5);
        let dropped = s.gc(100, 1);
        assert_eq!(dropped, 4);
        assert_eq!(s.version_count(), 1);
        // Delete the object entirely, then GC removes it from the map.
        s.prepare(10, 50, &[del(1)]).unwrap();
        s.commit(10, 51).unwrap();
        s.gc(100, 1);
        assert_eq!(s.object_count(), 0);
    }

    #[test]
    fn bulk_load_visible_to_all_snapshots() {
        let s = ServerStore::new();
        s.load_unchecked(obj(1), 0, Bytes::from_static(b"seed"))
            .unwrap();
        assert_eq!(
            s.get(obj(1), 1),
            ReadOutcome::Value(Some(Bytes::from_static(b"seed")))
        );
    }

    #[test]
    fn commit_unknown_txn_presumes_abort() {
        let s = ServerStore::new();
        // A commit for a transaction this store never prepared can only be
        // the tail of a reaped transaction: refuse it.
        assert_eq!(s.commit(999, 5).unwrap(), CommitOutcome::AlreadyAborted);
        s.abort(999).unwrap();
        assert_eq!(s.object_count(), 0);
        assert_eq!(s.outcome(999), Some(TxnOutcome::Aborted));
    }

    #[test]
    fn duplicate_commit_and_abort_are_deduped() {
        let s = ServerStore::new();
        assert_eq!(
            s.prepare(1, 5, &[w(1, "a")]).unwrap(),
            PrepareOutcome::Prepared
        );
        assert_eq!(s.commit(1, 10).unwrap(), CommitOutcome::Committed(10));
        // Retried commit (response was lost): same answer, nothing re-done.
        assert_eq!(s.commit(1, 10).unwrap(), CommitOutcome::Committed(10));
        // A stale abort after the commit must not erase it.
        s.abort(1).unwrap();
        assert_eq!(s.outcome(1), Some(TxnOutcome::Committed(10)));
        assert_eq!(
            s.get(obj(1), 20),
            ReadOutcome::Value(Some(Bytes::from_static(b"a")))
        );
        assert_eq!(s.version_count(), 1, "commit must not double-install");
        assert!(s.stats().dedup_hits >= 2);
    }

    #[test]
    fn duplicate_prepare_is_idempotent() {
        let s = ServerStore::new();
        assert_eq!(
            s.prepare(1, 5, &[w(1, "a")]).unwrap(),
            PrepareOutcome::Prepared
        );
        // Duplicate delivery of the same prepare: still prepared, exactly
        // one lock, exactly one prepared entry.
        assert_eq!(
            s.prepare(1, 5, &[w(1, "a")]).unwrap(),
            PrepareOutcome::Prepared
        );
        assert_eq!(s.prepared_count(), 1);
        s.commit(1, 10).unwrap();
        assert_eq!(s.version_count(), 1);
        assert_eq!(s.prepared_count(), 0);
    }

    #[test]
    fn lease_expiry_feeds_the_reaper_and_blocks_resurrection() {
        let s = ServerStore::new();
        assert_eq!(
            s.prepare_leased(7, 5, &[w(1, "a")], 3, Duration::from_micros(1), 6)
                .unwrap(),
            PrepareOutcome::Prepared
        );
        std::thread::sleep(Duration::from_millis(1));
        let expired = s.expired_prepared(Instant::now());
        assert_eq!(expired, vec![(7, 3)]);
        // The reaper presumes abort...
        s.abort(7).unwrap();
        assert_eq!(s.prepared_count(), 0);
        assert_eq!(s.get(obj(1), 100), ReadOutcome::Value(None));
        // ...after which neither a late prepare nor a late commit of the
        // same transaction may resurrect it.
        match s
            .prepare_leased(7, 5, &[w(1, "a")], 3, Duration::from_secs(10), 8)
            .unwrap()
        {
            PrepareOutcome::Conflict(_) => {}
            other => panic!("expected conflict, got {other:?}"),
        }
        assert_eq!(s.commit(7, 20).unwrap(), CommitOutcome::AlreadyAborted);
        assert_eq!(s.version_count(), 0);
    }

    #[test]
    fn one_phase_commit_retry_reports_original_fate() {
        let s = ServerStore::new();
        assert_eq!(
            s.commit_one_phase(1, 1, &[w(1, "a")], || 5).unwrap(),
            CommitOnePhaseOutcome::Committed(5)
        );
        // A retry draws no timestamp: the original fate is reported and
        // nothing is re-installed.
        assert_eq!(
            s.commit_one_phase(1, 1, &[w(1, "a")], || unreachable!(
                "dedup draws no timestamp"
            ))
            .unwrap(),
            CommitOnePhaseOutcome::Committed(5)
        );
        assert_eq!(s.version_count(), 1);
        // A conflicted one-phase commit is remembered as aborted.
        match s.commit_one_phase(2, 1, &[w(1, "b")], || 10).unwrap() {
            CommitOnePhaseOutcome::Conflict(_) => {}
            other => panic!("expected conflict, got {other:?}"),
        }
        assert_eq!(s.outcome(2), Some(TxnOutcome::Aborted));
        match s.commit_one_phase(2, 1, &[w(1, "b")], || 11).unwrap() {
            CommitOnePhaseOutcome::Conflict(_) => {}
            other => panic!("expected conflict on retry, got {other:?}"),
        }
    }

    #[test]
    fn outcome_table_is_bounded_and_keeps_commits_intact() {
        let s = ServerStore::with_outcome_retention(16);
        for i in 0..100u64 {
            assert_eq!(
                s.commit_one_phase(i + 1, 2 * i + 1, &[w(i, "v")], || 2 * i + 2)
                    .unwrap(),
                CommitOnePhaseOutcome::Committed(2 * i + 2)
            );
        }
        // Old outcomes were evicted, recent ones retained.
        assert_eq!(s.outcome(1), None);
        assert_eq!(s.outcome(100), Some(TxnOutcome::Committed(200)));
    }

    #[test]
    fn dump_versions_reports_history() {
        let s = ServerStore::new();
        s.prepare(1, 1, &[w(1, "a")]).unwrap();
        s.commit(1, 2).unwrap();
        s.prepare(2, 3, &[del(1)]).unwrap();
        s.commit(2, 4).unwrap();
        let hist = s.dump_versions(obj(1));
        assert_eq!(hist.len(), 2);
        assert!(hist.contains(&(2, Some(Bytes::from_static(b"a")))));
        assert!(hist.contains(&(4, None)));
        assert!(s.dump_versions(obj(99)).is_empty());
    }

    #[test]
    fn multi_shard_prepare_is_all_or_nothing() {
        let s = ServerStore::new();
        // Spread writes over many shards; make one of them conflict.
        let mut writes: Vec<WriteOp> = (0..64).map(|i| w(i, "x")).collect();
        assert_eq!(
            s.prepare(1, 5, &[w(33, "old")]).unwrap(),
            PrepareOutcome::Prepared
        );
        s.commit(1, 10).unwrap();
        writes[33] = w(33, "conflicting");
        match s.prepare(2, 5, &writes).unwrap() {
            PrepareOutcome::Conflict(_) => {}
            other => panic!("expected conflict, got {other:?}"),
        }
        // Nothing must be left locked by the failed prepare.
        for i in 0..64u64 {
            assert_ne!(
                s.get(obj(i), 100),
                ReadOutcome::Locked,
                "object {i} leaked a lock"
            );
        }
    }

    #[test]
    fn concurrent_disjoint_commits_succeed() {
        use std::sync::Arc;
        let s = Arc::new(ServerStore::new());
        let threads = 8;
        let per_thread = 200u64;
        let mut handles = Vec::new();
        for t in 0..threads {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for i in 0..per_thread {
                    let o = t as u64 * 10_000 + i;
                    let txn = o + 1;
                    let ts = 2 * o + 1;
                    assert_eq!(
                        s.commit_one_phase(txn, ts, &[w(o, "v")], || ts + 1)
                            .unwrap(),
                        CommitOnePhaseOutcome::Committed(ts + 1)
                    );
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.object_count(), threads as u64 * per_thread);
        assert_eq!(s.stats().commits, threads as u64 * per_thread);
    }

    #[test]
    fn concurrent_same_object_writers_one_winner_per_round() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let s = Arc::new(ServerStore::new());
        let wins = Arc::new(AtomicU64::new(0));
        let losses = Arc::new(AtomicU64::new(0));
        let ts = Arc::new(AtomicU64::new(1));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let s = Arc::clone(&s);
            let wins = Arc::clone(&wins);
            let losses = Arc::clone(&losses);
            let ts = Arc::clone(&ts);
            handles.push(std::thread::spawn(move || {
                for i in 0..100u64 {
                    let start = ts.fetch_add(1, Ordering::SeqCst);
                    let commit = ts.fetch_add(1, Ordering::SeqCst);
                    let txn = t * 1000 + i + 1;
                    match s
                        .commit_one_phase(txn, start, &[w(7, "contended")], || commit)
                        .unwrap()
                    {
                        CommitOnePhaseOutcome::Committed(_) => wins.fetch_add(1, Ordering::SeqCst),
                        CommitOnePhaseOutcome::Conflict(_) => losses.fetch_add(1, Ordering::SeqCst),
                    };
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let total = wins.load(Ordering::SeqCst) + losses.load(Ordering::SeqCst);
        assert_eq!(total, 800);
        assert!(wins.load(Ordering::SeqCst) >= 1);
        // Every committed version is still ordered in the chain.
        assert_eq!(s.object_count(), 1);
    }
}
