//! Benchmarks of the transactional key-value hot paths: snapshot gets,
//! one-phase and two-phase commit, and the no-communication read-only
//! commit.  Run with `cargo bench -p yesquel-bench --bench kv_ops`; set
//! `BENCH_JSON_OUT=<file>` to also record JSON lines (see BENCH_1.json).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use yesquel_bench::{durable_kv_deployment, kv_deployment};
use yesquel_common::{ObjectId, WalFsyncPolicy};

const SERVERS: usize = 4;
/// Tree id used for bench objects.
const TREE: u64 = 1;

/// Picks one object id homed at each server, so multi-object transactions
/// provably cross server boundaries (forcing two-phase commit).
fn one_oid_per_server(nservers: usize) -> Vec<ObjectId> {
    let mut picks: Vec<Option<ObjectId>> = vec![None; nservers];
    let mut oid = 0u64;
    while picks.iter().any(Option::is_none) {
        let obj = ObjectId::new(TREE, oid);
        let s = obj.home_server(nservers);
        if picks[s].is_none() {
            picks[s] = Some(obj);
        }
        oid += 1;
    }
    picks.into_iter().map(|p| p.expect("filled")).collect()
}

fn bench_get(c: &mut Criterion) {
    let db = kv_deployment(SERVERS);
    let client = db.client();
    // Preload a working set.
    let n = 1024u64;
    let txn = client.begin();
    for oid in 0..n {
        txn.put(ObjectId::new(TREE, oid), format!("value-{oid}"))
            .unwrap();
    }
    txn.commit().unwrap();

    c.bench_function("kv/get_point", |b| {
        let txn = client.begin();
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % n;
            black_box(txn.get(ObjectId::new(TREE, i)).unwrap())
        });
    });

    c.bench_function("kv/get_hot_object", |b| {
        // Repeated reads of one object in one transaction: every read after
        // the first is served from the transaction's read cache (no RPC).
        let txn = client.begin();
        let obj = ObjectId::new(TREE, 7);
        b.iter(|| black_box(txn.get(obj).unwrap()));
    });
}

fn bench_commit(c: &mut Criterion) {
    let db = kv_deployment(SERVERS);
    let client = db.client();

    c.bench_function("kv/commit_1pc", |b| {
        let mut i = 0u64;
        b.iter(|| {
            // One object -> one participant -> one-phase commit.
            i += 1;
            let txn = client.begin();
            txn.put(ObjectId::new(TREE, 1_000_000 + (i % 512)), b"x".to_vec())
                .unwrap();
            txn.commit().unwrap()
        });
    });
    assert!(
        db.stats().counter("kv.commit_1pc").get() > 0,
        "1PC path not exercised"
    );

    let spread = one_oid_per_server(SERVERS);
    c.bench_function("kv/commit_2pc", |b| {
        b.iter(|| {
            // One write per server -> every server participates -> 2PC.
            let txn = client.begin();
            for obj in &spread {
                txn.put(*obj, b"y".to_vec()).unwrap();
            }
            txn.commit().unwrap()
        });
    });
    assert!(
        db.stats().counter("kv.commit_2pc").get() > 0,
        "2PC path not exercised"
    );

    c.bench_function("kv/commit_readonly", |b| {
        let obj = ObjectId::new(TREE, 42);
        b.iter(|| {
            let txn = client.begin();
            let v = txn.get(obj).unwrap();
            txn.commit().unwrap();
            black_box(v)
        });
    });
}

fn bench_commit_wal(c: &mut Criterion) {
    // Same workload as kv/commit_1pc, but every server appends to a
    // write-ahead log before acknowledging.  Two fsync policies: group
    // commit (the default; a single appender pays the full window of
    // latency — the win is fsync batching under concurrency) and an fsync
    // per record.  Compare against kv/commit_1pc for the durability tax.
    let cases = [
        (
            "kv/commit_1pc_wal_group",
            WalFsyncPolicy::Group { window_us: 100 },
        ),
        ("kv/commit_1pc_wal_always", WalFsyncPolicy::Always),
    ];
    for (name, policy) in cases {
        let (db, _wal_dir) = durable_kv_deployment(SERVERS, policy);
        let client = db.client();
        c.bench_function(name, |b| {
            let mut i = 0u64;
            b.iter(|| {
                i += 1;
                let txn = client.begin();
                txn.put(ObjectId::new(TREE, 1_000_000 + (i % 512)), b"x".to_vec())
                    .unwrap();
                txn.commit().unwrap()
            });
        });
        assert!(
            db.stats().counter("wal.appends").get() > 0,
            "WAL path not exercised"
        );
        assert!(
            db.stats().counter("wal.fsyncs").get() > 0,
            "fsync policy not exercised"
        );
    }
}

fn bench_baseline(c: &mut Criterion) {
    // Single-node, non-transactional reference point.
    let kv = yesquel_baselines::LocalKv::new();
    for i in 0..1024u64 {
        kv.put(&i.to_be_bytes(), format!("value-{i}"));
    }
    c.bench_function("baseline/local_get", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 1024;
            black_box(kv.get(&i.to_be_bytes()))
        });
    });
}

criterion_group!(
    kv_benches,
    bench_get,
    bench_commit,
    bench_commit_wal,
    bench_baseline
);
criterion_main!(kv_benches);
