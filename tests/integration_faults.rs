//! Integration tests of the fault-tolerance machinery: servers crashing
//! mid-two-phase-commit, coordinators dying after prepare, lost commit
//! messages, and duplicate deliveries — all driven either through the real
//! client (with a [`FaultyTransport`] between it and the servers) or by
//! speaking the wire protocol directly to stand in for a coordinator that
//! dies at a precise point.
//!
//! The invariants under test are the 2PC safety rules: a transaction whose
//! coordinator vanishes after prepare leaves *no* orphaned prepared locks
//! once leases expire and the reaper runs; a transaction committed at its
//! primary participant is eventually committed everywhere; and in every
//! scenario the outcome is all-or-nothing across shards.

use std::sync::Arc;
use std::time::Duration;

use yesquel::kv::protocol::{KvRequest, KvResponse, TxnStatusKind, WriteOp};
use yesquel::kv::store::TxnOutcome;
use yesquel::rpc::{FaultPlan, TransportKind};
use yesquel::{Error, KvConfig, KvDatabase, ObjectId, YesquelConfig};

/// First oid ≥ `from` in tree 1 homed at `server` in a `nservers` cluster.
fn oid_on(server: usize, nservers: usize, from: u64) -> ObjectId {
    (from..)
        .map(|o| ObjectId::new(1, o))
        .find(|obj| obj.home_server(nservers) == server)
        .unwrap()
}

fn impatient(nservers: usize) -> YesquelConfig {
    let mut cfg = YesquelConfig::with_servers(nservers);
    cfg.kv = KvConfig::impatient();
    cfg
}

fn write(obj: ObjectId, val: &[u8]) -> WriteOp {
    WriteOp {
        obj,
        value: Some(bytes::Bytes::copy_from_slice(val)),
    }
}

/// A coordinator that prepares on two shards and then goes silent forever.
/// The prepare leases expire, the primary presumes abort, the secondary
/// learns the abort from the primary, and every lock is released.
#[test]
fn silent_coordinator_is_presumed_aborted() {
    let db = KvDatabase::with_servers(2);
    let transport = db.cluster().transport();
    let txn = 0xDEAD;
    let start_ts = db.oracle().next_timestamp();
    let (o0, o1) = (oid_on(0, 2, 0), oid_on(1, 2, 0));

    for (server, obj) in [(0usize, o0), (1usize, o1)] {
        let resp = transport
            .call(
                server,
                KvRequest::Prepare {
                    txn,
                    start_ts,
                    writes: vec![write(obj, b"never")],
                    primary: 0,
                    lease_us: 2_000,
                },
            )
            .unwrap();
        assert!(matches!(resp, KvResponse::Prepared), "{resp:?}");
    }
    assert_eq!(db.prepared_total(), 2);

    // The locks are real: a conflicting prepare is refused while they hold.
    let other = transport
        .call(
            0,
            KvRequest::Prepare {
                txn: 0xBEEF,
                start_ts: db.oracle().next_timestamp(),
                writes: vec![write(o0, b"blocked")],
                primary: 0,
                lease_us: 2_000,
            },
        )
        .unwrap();
    assert!(matches!(other, KvResponse::Conflict { .. }), "{other:?}");

    // Coordinator never comes back.  Let the leases lapse and reap.
    std::thread::sleep(Duration::from_millis(5));
    db.reap_all();

    assert_eq!(db.prepared_total(), 0, "no orphaned prepared locks");
    for srv in db.cluster().servers() {
        assert_eq!(srv.store().outcome(txn), Some(TxnOutcome::Aborted));
    }

    // All-or-nothing: nothing of the aborted transaction is visible, and
    // the objects are writable again.
    let client = db.client();
    let t = client.begin();
    assert_eq!(t.get(o0).unwrap(), None);
    assert_eq!(t.get(o1).unwrap(), None);
    t.put(o0, &b"after"[..]).unwrap();
    t.put(o1, &b"after"[..]).unwrap();
    t.commit().unwrap();

    // The late coordinator's commit is refused: presumed abort won.
    let late = transport
        .call(
            0,
            KvRequest::Commit {
                txn,
                commit_ts: db.oracle().next_timestamp(),
            },
        )
        .unwrap();
    assert!(matches!(late, KvResponse::Aborted), "{late:?}");
}

/// The coordinator commits at the primary and then dies.  The secondary's
/// lease expires, it asks the primary for the verdict, and adopts the
/// commit — the transaction lands atomically on both shards.
#[test]
fn secondary_adopts_commit_from_primary() {
    let db = KvDatabase::with_servers(2);
    let transport = db.cluster().transport();
    let txn = 0xC0FFEE;
    let start_ts = db.oracle().next_timestamp();
    let (o0, o1) = (oid_on(0, 2, 0), oid_on(1, 2, 0));

    for (server, obj) in [(0usize, o0), (1usize, o1)] {
        transport
            .call(
                server,
                KvRequest::Prepare {
                    txn,
                    start_ts,
                    writes: vec![write(obj, b"both")],
                    primary: 0,
                    lease_us: 2_000,
                },
            )
            .unwrap();
    }

    // Commit reaches the primary only; the coordinator dies before telling
    // the secondary.
    let commit_ts = db.oracle().next_timestamp();
    let resp = transport
        .call(0, KvRequest::Commit { txn, commit_ts })
        .unwrap();
    assert!(matches!(resp, KvResponse::Committed { .. }), "{resp:?}");
    assert_eq!(db.prepared_total(), 1, "secondary still in doubt");

    std::thread::sleep(Duration::from_millis(5));
    db.reap_all();

    assert_eq!(db.prepared_total(), 0);
    let servers = db.cluster().servers();
    for srv in servers {
        assert_eq!(
            srv.store().outcome(txn),
            Some(TxnOutcome::Committed(commit_ts))
        );
    }
    let (adopted, presumed) = servers[1].reap_counts();
    assert_eq!((adopted, presumed), (1, 0), "secondary adopted the commit");

    // Both writes visible at the same timestamp: atomic across shards.
    assert_eq!(
        servers[0].store().dump_versions(o0),
        vec![(commit_ts, Some(bytes::Bytes::from_static(b"both")))]
    );
    assert_eq!(
        servers[1].store().dump_versions(o1),
        vec![(commit_ts, Some(bytes::Bytes::from_static(b"both")))]
    );

    let client = db.client();
    let t = client.begin();
    assert_eq!(t.get(o0).unwrap().as_deref(), Some(&b"both"[..]));
    assert_eq!(t.get(o1).unwrap().as_deref(), Some(&b"both"[..]));
    t.commit().unwrap();
}

/// A secondary participant crashes immediately after processing its prepare
/// (the response is lost), driven through the real client.  The coordinator
/// aborts, the crashed server restarts with the prepared transaction still
/// on its books, and the reaper resolves it to abort by asking the primary.
/// Nothing is ever visible on either shard.
#[test]
fn server_crash_between_prepare_and_commit_resolves_to_abort() {
    // Server 1 (the secondary: the primary is the lowest participant id)
    // crashes after delivering exactly one request — the prepare.
    let plans = vec![
        FaultPlan::healthy(),
        FaultPlan {
            crash_after_requests: Some(1),
            ..FaultPlan::healthy()
        },
    ];
    let db = KvDatabase::with_faults(impatient(2), TransportKind::Direct, plans);
    let faults = Arc::clone(db.faults().unwrap());
    let client = db.client();
    let (o0, o1) = (oid_on(0, 2, 0), oid_on(1, 2, 0));

    let t = client.begin();
    t.put(o0, &b"half"[..]).unwrap();
    t.put(o1, &b"half"[..]).unwrap();
    match t.commit() {
        Err(Error::Unavailable(_)) => {}
        other => panic!("expected Unavailable from prepare deadline, got {other:?}"),
    }
    assert!(db.stats().counter("kv.prepare_deadline_aborts").get() >= 1);
    assert!(faults.is_crashed(1));

    // The crashed server still holds the prepared transaction — the abort
    // round could not reach it.
    assert_eq!(db.prepared_total(), 1, "orphan pending recovery");

    // Restart healthy (the scripted crash plan would otherwise re-fire on
    // the next delivery); the lease has long expired (impatient config).
    // The reaper asks the primary, which recorded the abort.
    faults.set_plan(1, FaultPlan::healthy());
    faults.restart(1);
    std::thread::sleep(Duration::from_millis(5));
    db.reap_all();
    assert_eq!(db.prepared_total(), 0, "no orphaned prepared locks");

    // All-or-nothing held: neither shard shows the write, and the objects
    // are usable again.
    let t = client.begin();
    assert_eq!(t.get(o0).unwrap(), None);
    assert_eq!(t.get(o1).unwrap(), None);
    t.put(o0, &b"retry"[..]).unwrap();
    t.put(o1, &b"retry"[..]).unwrap();
    t.commit().unwrap();
    let t = client.begin();
    assert_eq!(t.get(o0).unwrap().as_deref(), Some(&b"retry"[..]));
    assert_eq!(t.get(o1).unwrap().as_deref(), Some(&b"retry"[..]));
    t.commit().unwrap();
}

/// The commit message to a secondary is lost (the primary committed).  The
/// client still reports success; the secondary converges to the commit via
/// the reaper rather than losing the write.
#[test]
fn lost_secondary_commit_converges_to_committed() {
    let db = KvDatabase::with_faults(impatient(2), TransportKind::Direct, vec![]);
    let faults = Arc::clone(db.faults().unwrap());
    let client = db.client();
    let (o0, o1) = (oid_on(0, 2, 0), oid_on(1, 2, 0));

    // Drop every response from server 1 *after* the prepare phase: flip the
    // plan between prepare and commit is impossible from outside one
    // `commit()` call, so instead crash server 1 after it has delivered two
    // requests — the prepare (request 1) and the phase-two commit would be
    // request 2, whose response is lost.
    faults.set_plan(
        1,
        FaultPlan {
            crash_after_requests: Some(2),
            ..FaultPlan::healthy()
        },
    );

    let t = client.begin();
    t.put(o0, &b"kept"[..]).unwrap();
    t.put(o1, &b"kept"[..]).unwrap();
    // The commit succeeds: the primary confirmed it; the secondary's lost
    // ack only makes it a lagging participant.
    let commit_ts = t.commit().unwrap();
    assert!(db.stats().counter("kv.commit_lagging_participants").get() >= 1);

    // Did the secondary apply before crashing, or is it still prepared?
    // Either is legal; what matters is convergence after restart.
    faults.set_plan(1, FaultPlan::healthy());
    faults.restart(1);
    std::thread::sleep(Duration::from_millis(5));
    db.reap_all();

    assert_eq!(db.prepared_total(), 0);
    let servers = db.cluster().servers();
    assert_eq!(
        servers[1].store().dump_versions(o1),
        vec![(commit_ts, Some(bytes::Bytes::from_static(b"kept")))],
        "secondary converged to the commit, applied exactly once"
    );
    let t = client.begin();
    assert_eq!(t.get(o0).unwrap().as_deref(), Some(&b"kept"[..]));
    assert_eq!(t.get(o1).unwrap().as_deref(), Some(&b"kept"[..]));
    t.commit().unwrap();
}

/// Duplicate deliveries of prepare and commit (retransmissions racing the
/// original) must not double-apply: one version per object, and the second
/// commit reports the original timestamp.
#[test]
fn duplicate_prepare_and_commit_are_idempotent() {
    let db = KvDatabase::with_servers(1);
    let transport = db.cluster().transport();
    let txn = 0xD0D0;
    let start_ts = db.oracle().next_timestamp();
    let obj = oid_on(0, 1, 0);

    let prep = KvRequest::Prepare {
        txn,
        start_ts,
        writes: vec![write(obj, b"once")],
        primary: 0,
        lease_us: 1_000_000,
    };
    assert!(matches!(
        transport.call(0, prep.clone()).unwrap(),
        KvResponse::Prepared
    ));
    assert!(matches!(
        transport.call(0, prep).unwrap(),
        KvResponse::Prepared
    ));
    assert_eq!(db.prepared_total(), 1);

    let commit_ts = db.oracle().next_timestamp();
    for _ in 0..2 {
        match transport
            .call(0, KvRequest::Commit { txn, commit_ts })
            .unwrap()
        {
            KvResponse::Committed { commit_ts: ts } => assert_eq!(ts, commit_ts),
            other => panic!("expected Committed, got {other:?}"),
        }
    }
    let store = db.cluster().servers()[0].store();
    assert_eq!(store.dump_versions(obj).len(), 1, "applied exactly once");
    assert!(
        store.stats().dedup_hits >= 1,
        "duplicate commit answered from the outcome table"
    );

    // A duplicate prepare arriving after the commit reports Prepared (the
    // transaction succeeded; the retransmission is stale) and re-acquires
    // nothing.
    let stale_prep = KvRequest::Prepare {
        txn,
        start_ts,
        writes: vec![write(obj, b"once")],
        primary: 0,
        lease_us: 1_000_000,
    };
    assert!(matches!(
        transport.call(0, stale_prep).unwrap(),
        KvResponse::Prepared
    ));
    assert_eq!(db.prepared_total(), 0);
    assert_eq!(store.dump_versions(obj).len(), 1);
}

/// The wire-level `TxnStatus` query reports each fate correctly, through
/// the transport (not just the store API).
#[test]
fn txn_status_over_the_wire() {
    let db = KvDatabase::with_servers(1);
    let transport = db.cluster().transport();
    let obj = oid_on(0, 1, 0);

    let status = |txn| match transport.call(0, KvRequest::TxnStatus { txn }).unwrap() {
        KvResponse::TxnOutcome { status } => status,
        other => panic!("expected TxnOutcome, got {other:?}"),
    };

    assert_eq!(status(42), TxnStatusKind::Unknown);

    let start_ts = db.oracle().next_timestamp();
    transport
        .call(
            0,
            KvRequest::Prepare {
                txn: 42,
                start_ts,
                writes: vec![write(obj, b"x")],
                primary: 0,
                lease_us: 1_000_000,
            },
        )
        .unwrap();
    assert_eq!(status(42), TxnStatusKind::Pending);

    let commit_ts = db.oracle().next_timestamp();
    transport
        .call(0, KvRequest::Commit { txn: 42, commit_ts })
        .unwrap();
    assert_eq!(status(42), TxnStatusKind::Committed(commit_ts));

    transport.call(0, KvRequest::Abort { txn: 43 }).unwrap();
    assert_eq!(status(43), TxnStatusKind::Aborted);
}

/// A whole-cluster crash makes client operations fail with availability
/// errors (after bounded retries), never hangs and never panics; service
/// resumes after restart with all pre-crash data intact.
#[test]
fn full_outage_fails_cleanly_and_recovers() {
    let db = KvDatabase::with_faults(impatient(3), TransportKind::Direct, vec![]);
    let faults = Arc::clone(db.faults().unwrap());
    let client = db.client();

    let t = client.begin();
    for i in 0..9 {
        t.put(ObjectId::new(1, i), format!("v{i}")).unwrap();
    }
    t.commit().unwrap();

    for s in 0..3 {
        faults.crash(s);
    }
    let t = client.begin();
    match t.get(ObjectId::new(1, 0)) {
        Err(e) if e.is_availability() => {}
        other => panic!("expected an availability error, got {other:?}"),
    }
    t.abort();
    assert!(db.stats().counter("rpc.retries").get() > 0);
    assert!(db.stats().counter("rpc.faults_injected").get() > 0);

    faults.heal_all();
    let t = client.begin();
    for i in 0..9 {
        assert_eq!(
            t.get(ObjectId::new(1, i)).unwrap().as_deref(),
            Some(format!("v{i}").as_bytes()),
            "data survived the outage"
        );
    }
    t.commit().unwrap();
}
