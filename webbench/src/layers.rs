//! Per-layer attribution for the traced run.
//!
//! A traced operation runs exactly as an untraced one, inside an `op` span
//! with a `yesquel.stmt` span around every session call.  Afterwards the
//! benchmark replays the operation's lower layers from its own code, each
//! call in a child span of the `op` span and with the same inputs: the
//! statement's `parse` and `plan_statement`, the `Dbt::lookup`/`scan` it
//! boils down to, a `Dbt::insert` plus `Txn::commit` of a row of the same
//! size, a page-sized `Txn::get`, a `Cluster::call`, a two-server commit,
//! durable commits through a write-ahead log (for a workload whose own
//! deployment has none), and a `LocalKv::get`.  Replayed writes go to
//! benchmark-owned trees, objects and deployments, so table state and the
//! checks are untouched.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use yesquel::baselines::LocalKv;
use yesquel::common::ids::FIRST_NODE_OID;
use yesquel::common::stats::StatsRegistry;
use yesquel::kv::{KvClient, KvDatabase, KvRequest};
use yesquel::sql::row::encode_index_key;
use yesquel::sql::Catalog;
use yesquel::{Dbt, ObjectId, Value, Yesquel, YesquelConfig};

use crate::client::{Client, Probe, Rung};
use crate::gen::{fnv, title};
use crate::measure::{median, self_time_ns, Span};
use crate::world::{Workload, World};

/// Tree ids of the benchmark-owned trees and objects, far above anything
/// the SQL catalog allocates.
const BENCH_TREE: u64 = 0x7eb_0000_0000;
const BENCH_OBJECTS: u64 = BENCH_TREE + 1;

/// Size of the object the `kvstore.get` rung reads: a full leaf of rows a
/// few hundred bytes wide.
const PAGE_BYTES: usize = 16 * 1024;

/// Keys in the drift-anchor map.
const LOCAL_KEYS: u64 = 4096;

/// Durable commits each replayed write makes through the [`WalRung`].
const WAL_COMMITS_PER_WRITE: usize = 4;

/// Benchmark-owned objects and handles the replayed calls use.
pub struct Fixtures {
    bench_tree: Dbt,
    page_obj: ObjectId,
    /// Two objects homed on different servers.
    pair: [ObjectId; 2],
    local: LocalKv,
    next_key: AtomicU64,
    /// Table name → (row tree, index trees).
    tables: HashMap<&'static str, (Dbt, Vec<Dbt>)>,
    /// The durable deployment replayed writes also commit to, when the
    /// deployment under test has no write-ahead log.
    pub wal: Option<WalRung>,
}

impl Fixtures {
    pub fn new(y: &Yesquel) -> Fixtures {
        let servers = y.db().num_servers();
        let bench_tree = y.create_tree(BENCH_TREE).expect("create the bench tree");
        let obj = |oid| ObjectId::new(BENCH_OBJECTS, oid);
        let page_obj = obj(FIRST_NODE_OID);
        let first = obj(FIRST_NODE_OID + 1);
        let second = (FIRST_NODE_OID + 2..)
            .map(obj)
            .find(|o| servers == 1 || o.home_server(servers) != first.home_server(servers))
            .expect("an object on another server");
        let txn = y.begin();
        txn.put(page_obj, vec![b'p'; PAGE_BYTES])
            .expect("write page object");
        txn.commit().expect("commit fixtures");
        Fixtures {
            bench_tree,
            page_obj,
            pair: [first, second],
            local: local_kv(),
            next_key: AtomicU64::new(0),
            tables: HashMap::new(),
            wal: None,
        }
    }

    /// Registers a table whose trees the replayed reads use.
    pub fn add_table(&mut self, name: &'static str, trees: (Dbt, Vec<Dbt>)) {
        self.tables.insert(name, trees);
    }
}

/// A benchmark-owned durable deployment: 4 servers, Direct transport, a
/// write-ahead log per server with the default group-commit policy.  A
/// replayed write commits rows of the operation's size to fresh objects
/// here, so a workload without a log of its own still measures the `wal`
/// layer and checks its recovery.  The writes are blind and each goes to
/// an object nobody else writes, so they time the log and test durability;
/// they say nothing about isolation.
pub struct WalRung {
    db: KvDatabase,
    client: KvClient,
    cfg: YesquelConfig,
    next: AtomicU64,
    /// Acknowledged writes: object and value length (the value is a
    /// function of both).
    acked: Mutex<Vec<(ObjectId, usize)>>,
    /// Bytes of values committed.
    pub user_bytes: AtomicU64,
}

impl WalRung {
    pub fn open(dir: &Path) -> WalRung {
        let mut cfg = YesquelConfig::with_servers(4);
        cfg.kv.wal_dir = Some(dir.to_path_buf());
        let db = KvDatabase::try_new(cfg.clone()).expect("open the rung's write-ahead logs");
        WalRung {
            client: db.client(),
            db,
            cfg,
            next: AtomicU64::new(0),
            acked: Mutex::new(Vec::new()),
            user_bytes: AtomicU64::new(0),
        }
    }

    pub fn stats(&self) -> &StatsRegistry {
        self.db.stats()
    }

    /// Whether any replayed write committed here.
    pub fn wrote(&self) -> bool {
        self.user_bytes.load(Ordering::Relaxed) > 0
    }

    pub fn dir(&self) -> &Path {
        self.cfg.kv.wal_dir.as_deref().expect("the rung has a log")
    }

    /// Commits a value of `bytes` bytes to a fresh object.
    fn commit(&self, bytes: usize) -> yesquel::Result<()> {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        let obj = ObjectId::new(BENCH_OBJECTS, FIRST_NODE_OID + n);
        let txn = self.client.begin();
        txn.put(obj, rung_value(obj, bytes))?;
        txn.commit()?;
        self.user_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        self.acked.lock().expect("rung log").push((obj, bytes));
        Ok(())
    }

    /// Simulates a power loss on every server's log, drops the deployment,
    /// reopens it from the logs and reads back every acknowledged write.
    /// Returns the reopen time and what did not survive.
    pub fn crash_and_reopen(self) -> (f64, Vec<String>) {
        for srv in self.db.cluster().servers() {
            if let Some(wal) = srv.store().wal() {
                wal.power_loss().expect("simulate power loss");
            }
        }
        let WalRung {
            db,
            client,
            cfg,
            acked,
            ..
        } = self;
        drop((client, db));
        let t0 = Instant::now();
        let db = match KvDatabase::try_new(cfg) {
            Ok(db) => db,
            Err(e) => return (0.0, vec![format!("reopen the rung's logs: {e}")]),
        };
        let secs = t0.elapsed().as_secs_f64();
        let txn = db.client().begin();
        let acked = acked.into_inner().expect("rung log");
        let bad = check_rung(&acked, |obj| txn.get(obj));
        txn.abort();
        (secs, bad)
    }
}

/// The value the rung writes to `obj`.
fn rung_value(obj: ObjectId, bytes: usize) -> Vec<u8> {
    let tag = fnv(&[obj.oid, bytes as u64]).to_le_bytes();
    tag.iter().copied().cycle().take(bytes).collect()
}

/// Every acknowledged rung write must read back with its value.
fn check_rung(
    acked: &[(ObjectId, usize)],
    mut get: impl FnMut(ObjectId) -> yesquel::Result<Option<bytes::Bytes>>,
) -> Vec<String> {
    acked
        .iter()
        .filter_map(|&(obj, bytes)| match get(obj) {
            Ok(Some(v)) if v[..] == rung_value(obj, bytes)[..] => None,
            Ok(Some(v)) => Some(format!(
                "rung object {obj:?}: wrong value of {} bytes",
                v.len()
            )),
            Ok(None) => Some(format!("rung object {obj:?}: acknowledged write lost")),
            Err(e) => Some(format!("rung object {obj:?}: {e}")),
        })
        .collect()
}

fn local_kv() -> LocalKv {
    let local = LocalKv::new();
    for k in 0..LOCAL_KEYS {
        local.put(&k.to_be_bytes(), vec![b'v'; 64]);
    }
    local
}

/// Median ns of one `LocalKv::get`, timed over batches: the drift anchor.
pub fn local_get_ns() -> f64 {
    const BATCH: u64 = 20_000;
    let local = local_kv();
    let keys: Vec<[u8; 8]> = (0..LOCAL_KEYS).map(|k| k.to_be_bytes()).collect();
    let batches: Vec<f64> = (0..15)
        .map(|b| {
            let t0 = std::time::Instant::now();
            for i in 0..BATCH {
                let k = &keys[(fnv(&[b, i]) % LOCAL_KEYS) as usize];
                std::hint::black_box(local.get(std::hint::black_box(k)));
            }
            t0.elapsed().as_nanos() as f64 / BATCH as f64
        })
        .collect();
    median(&batches)
}

/// Runs one operation traced: an `op` span around the operation, then the
/// replayed lower layers as its children.
pub fn traced_op(wl: &dyn Workload, w: &World, c: &mut Client) {
    let t = c.tracer.as_mut().expect("traced client");
    let (op, root) = (t.id(), t.id());
    let start_ns = t.now_ns();
    c.traced_op = Some((op, root));
    wl.op(w, c);
    c.traced_op = None;
    if let Some(p) = c.probe.take() {
        c.uncached_ops.insert(op, p.uncached);
        replay(w, c, op, root, &p);
    }
    let t = c.tracer.as_mut().expect("traced client");
    let end_ns = t.now_ns();
    t.spans.push(Span {
        op_id: op,
        span_id: root,
        parent_id: None,
        name: "op",
        start_ns,
        end_ns,
    });
}

fn replay(w: &World, c: &mut Client, op: u64, root: u64, p: &Probe) {
    let mut t = c.tracer.take().expect("traced client");
    let at = Some(root);
    let y = &w.y;
    let fx = &w.fx;

    let stmt = t.span(op, at, "sql.parse", |_, _| yesquel::sql::parse(&p.sql));
    if let Ok(stmt) = stmt {
        let txn = y.begin();
        let _ = t.span(op, at, "sql.plan", |_, _| {
            yesquel::sql::plan_statement(c.session.catalog(), &txn, &stmt)
        });
        txn.abort();
    }

    if let Some(rung) = p.read {
        let txn = y.begin();
        match rung {
            Rung::Row { table, id } => {
                let rows = &fx.tables[table].0;
                let key = Catalog::rowid_key(id);
                t.span(op, at, "ydbt.lookup", |_, _| rows.lookup(&txn, &key))
                    .expect("replayed lookup");
            }
            Rung::Title { id } => {
                let (rows, idx) = &fx.tables["pages"];
                let ikey = encode_index_key(&[Value::Text(title(id))], None);
                t.span(op, at, "ydbt.lookup", |_, _| idx[0].lookup(&txn, &ikey))
                    .expect("replayed index lookup");
                let key = Catalog::rowid_key(id);
                t.span(op, at, "ydbt.lookup", |_, _| rows.lookup(&txn, &key))
                    .expect("replayed lookup");
            }
            Rung::TitleScan { id, limit } => {
                let idx = &fx.tables["pages"].1[0];
                let ikey = encode_index_key(&[Value::Text(title(id))], None);
                t.span(op, at, "ydbt.scan", |_, _| {
                    let cursor = idx.scan(&txn, Some(&ikey), None)?;
                    cursor.take(limit).count();
                    Ok::<_, yesquel::Error>(())
                })
                .expect("replayed scan");
            }
        }
        txn.abort();
    }

    if let Some(bytes) = p.write_bytes {
        let n = fx.next_key.fetch_add(1, Ordering::Relaxed);
        let key = fnv(&[n, c.idx as u64]).to_be_bytes();
        let value = vec![b'r'; bytes];
        let txn = y.begin();
        let _ = t.span(op, at, "ydbt.insert", |t, me| {
            fx.bench_tree.insert(&txn, &key, &value)?;
            t.span(op, Some(me), "kvstore.commit_1pc", |_, _| txn.commit())
        });
        let txn = y.begin();
        for o in fx.pair {
            txn.put(o, vec![b'w'; 64]).expect("buffer replayed write");
        }
        let _ = t.span(op, at, "kvstore.commit_2pc", |_, _| txn.commit());
        if let Some(wal) = &fx.wal {
            for _ in 0..WAL_COMMITS_PER_WRITE {
                if let Err(e) = t.span(op, at, "wal.commit", |_, _| wal.commit(bytes)) {
                    c.bad.push(format!("durable rung commit: {e}"));
                }
            }
        }
    }

    let txn = y.begin();
    t.span(op, at, "kvstore.get", |_, _| txn.get(fx.page_obj))
        .expect("replayed get");
    let ts = txn.start_ts();
    txn.abort();
    let home = fx.page_obj.home_server(y.db().num_servers());
    let req = KvRequest::Get {
        obj: fx.page_obj,
        ts,
    };
    t.span(op, at, "rpc.call", |_, _| y.db().cluster().call(home, req))
        .expect("replayed call");
    let k = (fnv(&[op]) % LOCAL_KEYS).to_be_bytes();
    t.span(op, at, "baselines.local_get", |_, _| {
        std::hint::black_box(fx.local.get(&k))
    });
    c.tracer = Some(t);
}

/// Median duration of the spans called `name`; 0 when there are none.
fn median_ns(spans: &[Span], name: &str) -> f64 {
    let v: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect();
    if v.is_empty() {
        0.0
    } else {
        median(&v)
    }
}

/// The span-derived per-layer metrics.
pub fn span_metrics(spans: &[Span], probes_uncached: &BTreeMap<u64, bool>) -> Vec<(String, f64)> {
    let mut by_op: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        by_op.entry(s.op_id).or_default().push(s);
    }
    // sql.exec_self: a one-statement operation's statement time minus the
    // parse and plan it paid (only when its text missed the statement
    // cache) and minus its tree-level calls.
    let mut exec_self = Vec::new();
    let mut insert_self = Vec::new();
    for (op, ss) in &by_op {
        for s in ss.iter().filter(|s| s.name == "ydbt.insert") {
            insert_self.push(self_time_ns(s, spans) as f64);
        }
        let stmts: Vec<&&Span> = ss.iter().filter(|s| s.name == "yesquel.stmt").collect();
        if stmts.len() != 1 {
            continue;
        }
        let dur = |name: &str| -> f64 {
            ss.iter()
                .filter(|s| s.name == name)
                .map(|s| s.dur_ns() as f64)
                .sum()
        };
        let mut v = stmts[0].dur_ns() as f64;
        if probes_uncached.get(op).copied().unwrap_or(false) {
            v -= dur("sql.parse") + dur("sql.plan");
        }
        v -= dur("ydbt.lookup") + dur("ydbt.scan") + dur("ydbt.insert");
        exec_self.push(v);
    }
    let med = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    vec![
        ("yesquel.stmt_ns".into(), median_ns(spans, "yesquel.stmt")),
        ("sql.parse_ns".into(), median_ns(spans, "sql.parse")),
        ("sql.plan_ns".into(), median_ns(spans, "sql.plan")),
        ("sql.exec_self_ns".into(), med(&exec_self)),
        ("ydbt.lookup_ns".into(), median_ns(spans, "ydbt.lookup")),
        ("ydbt.scan_ns".into(), median_ns(spans, "ydbt.scan")),
        ("ydbt.insert_ns".into(), median_ns(spans, "ydbt.insert")),
        ("ydbt.insert_self_ns".into(), med(&insert_self)),
        ("kvstore.get_ns".into(), median_ns(spans, "kvstore.get")),
        (
            "kvstore.commit_1pc_ns".into(),
            median_ns(spans, "kvstore.commit_1pc"),
        ),
        (
            "kvstore.commit_2pc_ns".into(),
            median_ns(spans, "kvstore.commit_2pc"),
        ),
        ("rpc.call_ns".into(), median_ns(spans, "rpc.call")),
    ]
}

/// Ratio that reads 0 when nothing happened.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(op: u64, id: u64, parent: Option<u64>, name: &'static str, s: u64, e: u64) -> Span {
        Span {
            op_id: op,
            span_id: id,
            parent_id: parent,
            name,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn rung_check_rejects_lost_and_corrupted_writes() {
        let obj = |oid| ObjectId::new(BENCH_OBJECTS, oid);
        let acked = vec![(obj(1), 16), (obj(2), 40)];
        let store = |o: ObjectId| Ok(Some(rung_value(o, if o.oid == 1 { 16 } else { 40 }).into()));
        assert!(check_rung(&acked, store).is_empty());
        let lost = check_rung(&acked, |o| if o.oid == 2 { Ok(None) } else { store(o) });
        assert_eq!(lost.len(), 1);
        assert!(lost[0].contains("lost"), "{lost:?}");
        let short = check_rung(&acked, |o| Ok(Some(rung_value(o, 8).into())));
        assert_eq!(short.len(), 2);
    }

    #[test]
    fn exec_self_subtracts_the_rungs_an_operation_paid() {
        let spans = vec![
            // op 1: literal text, so parse and plan count against it.
            sp(1, 10, None, "op", 0, 1000),
            sp(1, 11, Some(10), "yesquel.stmt", 0, 500),
            sp(1, 12, Some(10), "sql.parse", 500, 600),
            sp(1, 13, Some(10), "sql.plan", 600, 650),
            sp(1, 14, Some(10), "ydbt.lookup", 650, 750),
            // op 2: cached text; an insert with a nested commit.
            sp(2, 20, None, "op", 0, 1000),
            sp(2, 21, Some(20), "yesquel.stmt", 0, 400),
            sp(2, 22, Some(20), "sql.parse", 400, 500),
            sp(2, 23, Some(20), "ydbt.insert", 500, 800),
            sp(2, 24, Some(23), "kvstore.commit_1pc", 600, 800),
        ];
        let uncached = BTreeMap::from([(1, true), (2, false)]);
        let m: BTreeMap<String, f64> = span_metrics(&spans, &uncached).into_iter().collect();
        // op 1: 500 − 100 − 50 − 100 = 250; op 2: 400 − 300 = 100.
        assert_eq!(m["sql.exec_self_ns"], 175.0);
        assert_eq!(m["ydbt.insert_self_ns"], 100.0);
        assert_eq!(m["kvstore.commit_1pc_ns"], 200.0);
        assert_eq!(m["ydbt.scan_ns"], 0.0);
    }
}
