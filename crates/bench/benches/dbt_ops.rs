//! Benchmarks of the distributed-balanced-tree read/write paths.
//!
//! `dbt/point_read_warm` is the paper's headline case: a warm client cache
//! means the lookup fetches exactly one node (the leaf).  The cold and
//! no-cache variants quantify what the cache buys.  Run with
//! `cargo bench -p yesquel-bench --bench dbt_ops`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use yesquel_bench::{bench_key, loaded_tree};
use yesquel_common::config::SplitMode;
use yesquel_common::DbtConfig;

const SERVERS: usize = 4;
const KEYS: u64 = 4096;
/// Key step between consecutive lookups that share one transaction.  More
/// than a leaf's cell count, so consecutive lookups never share a leaf, and
/// coprime with `KEYS`, so a leaf recurs only after 62 others — more than a
/// transaction's read cache holds.  Each lookup thus fetches its leaf from
/// its server, as a fresh transaction's would.
const STRIDE: u64 = 65;

fn tree_cfg() -> DbtConfig {
    DbtConfig {
        // Synchronous splits keep the loaded tree deterministic (no
        // background splitter racing the measurement loop).
        split_mode: SplitMode::Synchronous,
        load_splits: false,
        ..DbtConfig::default()
    }
}

fn bench_point_read(c: &mut Criterion) {
    let (db, engine, dbt) = loaded_tree(SERVERS, KEYS, tree_cfg());
    let client = db.client();

    // Warm the cache once.
    {
        let txn = client.begin();
        for i in 0..KEYS {
            dbt.lookup(&txn, &bench_key(i)).unwrap();
        }
        txn.commit().unwrap();
    }

    c.bench_function("dbt/point_read_warm", |b| {
        let txn = client.begin();
        let mut i = 0u64;
        b.iter(|| {
            i = (i + STRIDE) % KEYS;
            black_box(dbt.lookup(&txn, &bench_key(i)).unwrap())
        });
    });

    c.bench_function("dbt/point_read_warm_with_txn", |b| {
        // Includes begin + read-only commit, i.e. a whole auto-commit point
        // query as an application would issue it.
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % KEYS;
            let txn = client.begin();
            let v = dbt.lookup(&txn, &bench_key(i)).unwrap();
            txn.commit().unwrap();
            black_box(v)
        });
    });

    c.bench_function("dbt/point_read_cold", |b| {
        // Cache dropped before every lookup: the search walks from the
        // root.  The invalidation happens in the untimed setup phase so the
        // recorded number is the cold lookup alone.  Each lookup gets a
        // fresh transaction, whose empty read cache holds no inner node.
        let mut i = 0u64;
        b.iter_batched(
            || {
                engine.invalidate_cache(dbt.tree_id());
                i = (i + 1) % KEYS;
                (bench_key(i), client.begin())
            },
            |(key, txn)| black_box(dbt.lookup(&txn, &key).unwrap()),
            criterion::BatchSize::PerIteration,
        );
    });
}

fn bench_point_read_no_cache(c: &mut Criterion) {
    // The F4 ablation configuration: caching disabled entirely.
    let cfg = DbtConfig {
        cache_inner_nodes: false,
        back_down_search: false,
        ..tree_cfg()
    };
    let (db, _engine, dbt) = loaded_tree(SERVERS, KEYS, cfg);
    let client = db.client();
    c.bench_function("dbt/point_read_no_cache", |b| {
        // A fresh transaction per lookup (begun untimed): one shared
        // transaction's read cache would serve the root and inner nodes.
        let mut i = 0u64;
        b.iter_batched(
            || {
                i = (i + 1) % KEYS;
                (bench_key(i), client.begin())
            },
            |(key, txn)| black_box(dbt.lookup(&txn, &key).unwrap()),
            criterion::BatchSize::PerIteration,
        );
    });
}

fn bench_scan(c: &mut Criterion) {
    let (db, _engine, dbt) = loaded_tree(SERVERS, KEYS, tree_cfg());
    let client = db.client();
    // Warm the cache once.
    {
        let txn = client.begin();
        for i in 0..KEYS {
            dbt.lookup(&txn, &bench_key(i)).unwrap();
        }
        txn.commit().unwrap();
    }
    c.bench_function("dbt/scan_100", |b| {
        // A warm 100-row range scan: one find_leaf, then cells streamed
        // straight out of the leaf views (zero-copy Bytes per row).
        let txn = client.begin();
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 97) % (KEYS - 100);
            let mut rows = 0u64;
            for item in dbt
                .scan(&txn, Some(&bench_key(i)), Some(&bench_key(i + 100)))
                .unwrap()
            {
                let (k, v) = item.unwrap();
                black_box((&k, &v));
                rows += 1;
            }
            assert_eq!(rows, 100);
            black_box(rows)
        });
    });
}

fn bench_insert(c: &mut Criterion) {
    let (db, _engine, dbt) = loaded_tree(SERVERS, KEYS, tree_cfg());
    let client = db.client();
    c.bench_function("dbt/insert_commit", |b| {
        let mut i = KEYS;
        b.iter(|| {
            i += 1;
            client
                .run_txn(|txn| dbt.insert(txn, &bench_key(i), b"inserted"))
                .unwrap()
        });
    });
    c.bench_function("dbt/update_commit", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % KEYS;
            client
                .run_txn(|txn| dbt.insert(txn, &bench_key(i), b"updated"))
                .unwrap()
        });
    });
}

criterion_group!(
    dbt_benches,
    bench_point_read,
    bench_point_read_no_cache,
    bench_scan,
    bench_insert
);
criterion_main!(dbt_benches);
