//! One benchmark run: set up several times, measure untraced, optionally
//! measure again traced, check every answer, and assemble the metrics.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use yesquel::common::stats::{HistogramSummary, StatsRegistry};
use yesquel::kv::KvDatabase;
use yesquel::Yesquel;

use crate::client::{Acked, Fails, WINDOW};
use crate::layers::{local_get_ns, ratio, span_metrics, WalRung};
use crate::measure::{highest_supported, median, percentile, render_spans, Span};
use crate::world::{run_phase, Stop, Workload, World};

pub struct Opts {
    pub name: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Deployments built; `setup_s` is the median of their set-up times.
    pub setups: usize,
    /// Scratch space (write-ahead logs) and the span dump go here.
    pub out_dir: PathBuf,
}

/// One output metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn m(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Failed checks.
    pub bad: Vec<String>,
}

impl Report {
    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|x| {
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    x.name, x.value, x.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        )
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(md) if md.is_dir() => dir_bytes(&e.path()),
            Ok(md) => md.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Consecutive latency samples of one client that one percentile reading
/// covers: a p99 of a block leaves exactly ten samples beyond it.
const BLOCK: usize = 1000;

/// What the clients measured in one phase.
#[derive(Default)]
struct Tally {
    /// Each client's latencies in completion order, ns.
    read_seqs: Vec<Vec<u64>>,
    write_seqs: Vec<Vec<u64>>,
    /// Successes per complete window, summed over clients.
    ok_per_window: Vec<u64>,
    attempted: u64,
    fails: Fails,
    stmts: u64,
    rows: u64,
    user_bytes: u64,
}

impl Tally {
    /// Merges the clients' records; `complete` is the number of windows
    /// that lie wholly inside the phase.
    fn of(w: &World, complete: usize) -> Tally {
        let mut t = Tally {
            ok_per_window: vec![0; complete],
            ..Tally::default()
        };
        for c in &w.clients {
            t.read_seqs.push(c.read_ns.clone());
            t.write_seqs.push(c.write_ns.clone());
            for (sum, n) in t.ok_per_window.iter_mut().zip(&c.ok_per_window) {
                *sum += n;
            }
            t.attempted += c.attempted;
            t.fails.add(&c.fails);
            t.stmts += c.stmts;
            t.rows += c.rows;
            t.user_bytes += c.user_bytes;
        }
        t
    }

    fn ok_ops(&self) -> u64 {
        self.attempted - self.fails.total()
    }

    fn reads(&self) -> usize {
        self.read_seqs.iter().map(Vec::len).sum()
    }
}

/// Splits sample sequences into sorted blocks of [`BLOCK`] consecutive
/// samples, dropping each sequence's incomplete tail; samples too few
/// for one block become a single block of everything.
fn blocks<'a>(seqs: impl IntoIterator<Item = &'a Vec<u64>>) -> Vec<Vec<u64>> {
    let seqs: Vec<&Vec<u64>> = seqs.into_iter().collect();
    let mut out: Vec<Vec<u64>> = seqs
        .iter()
        .flat_map(|s| s.chunks_exact(BLOCK).map(<[u64]>::to_vec))
        .collect();
    if out.is_empty() {
        out.push(seqs.iter().flat_map(|s| s.iter().copied()).collect());
    }
    out.iter_mut().for_each(|b| b.sort_unstable());
    out
}

/// Median over blocks of each block's percentile `q`, in µs; 0 without
/// samples.
fn block_quantile(blocks: &[Vec<u64>], q: f64) -> f64 {
    let v: Vec<f64> = blocks
        .iter()
        .filter(|b| !b.is_empty())
        .map(|b| us(b, q))
        .collect();
    if v.is_empty() {
        0.0
    } else {
        median(&v)
    }
}

fn us(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        percentile(sorted, q) as f64 / 1000.0
    }
}

fn block_note(label: &str, blocks: &[Vec<u64>]) -> String {
    let smallest = blocks.iter().map(Vec::len).min().unwrap_or(0);
    let tail =
        highest_supported(smallest).map_or("none".to_string(), |q| format!("p{}", q * 100.0));
    format!(
        "{label} latencies: {} blocks of {smallest}+ samples; highest percentile with >= 10 samples beyond in every block: {tail}",
        blocks.len()
    )
}

/// Simulates a power loss on every server's log, drops the deployment,
/// and reopens it from the logs.  Returns the reopen time.
fn crash_and_reopen(w: World) -> (f64, Yesquel) {
    w.y.engine().wait_for_splits();
    for srv in w.y.db().cluster().servers() {
        if let Some(wal) = srv.store().wal() {
            wal.power_loss().expect("simulate power loss");
        }
    }
    let cfg = w.cfg.clone();
    drop(w);
    let t0 = Instant::now();
    let db = KvDatabase::try_new(cfg).expect("recover from the write-ahead logs");
    let recovery_s = t0.elapsed().as_secs_f64();
    (
        recovery_s,
        Yesquel::open_db(db).expect("reopen the catalog"),
    )
}

/// Counters of the untraced phase and what was measured outside the
/// program around it.
struct PhaseCounters {
    counters: BTreeMap<String, u64>,
    server_reqs: Vec<u64>,
    wal_growth: u64,
    versions_per_object: f64,
}

/// What the `wal` metrics are computed from: counters, histograms, log
/// growth and the bytes of values written.
struct WalWindow {
    counters: BTreeMap<String, u64>,
    hist: BTreeMap<String, HistogramSummary>,
    growth: u64,
    user_bytes: u64,
}

/// The traced phase's output.
struct Traced {
    ops_per_s: f64,
    spans: Vec<Span>,
    uncached: BTreeMap<u64, bool>,
    hist: BTreeMap<String, HistogramSummary>,
    /// The durable rung's log over the phase, when anything was written
    /// to it.
    rung_wal: Option<WalWindow>,
}

fn traced_phase(wl: &dyn Workload, w: &mut World, stats: &StatsRegistry, d: Duration) -> Traced {
    stats.reset();
    stats.obs().set_timing(true);
    let rung = w.fx.wal.as_ref().map(|r| {
        r.stats().reset();
        r.stats().obs().set_timing(true);
        (r.stats().snapshot(), dir_bytes(r.dir()))
    });
    let b = run_phase(wl, w, Stop::After(d), Some(Instant::now()));
    stats.obs().set_timing(false);
    let rung_wal =
        w.fx.wal
            .as_ref()
            .zip(rung)
            .and_then(|(r, (before, bytes_before))| {
                r.stats().obs().set_timing(false);
                r.wrote().then(|| WalWindow {
                    counters: r.stats().snapshot().counter_delta(&before),
                    hist: r.stats().histogram_snapshot(),
                    growth: dir_bytes(r.dir()).saturating_sub(bytes_before),
                    user_bytes: r.user_bytes.load(Ordering::Relaxed),
                })
            });
    let spans = w
        .clients
        .iter_mut()
        .flat_map(|c| c.tracer.take().map(|t| t.spans).unwrap_or_default())
        .collect();
    let uncached = w
        .clients
        .iter_mut()
        .flat_map(|c| std::mem::take(&mut c.uncached_ops))
        .collect();
    Traced {
        ops_per_s: Tally::of(w, 0).ok_ops() as f64 / b.elapsed_s,
        spans,
        uncached,
        hist: stats.histogram_snapshot(),
        rung_wal,
    }
}

/// One deployment's untraced measured phase.
struct Measured {
    tally: Tally,
    counters: PhaseCounters,
    ops_per_s: f64,
    peak_rss_mb: f64,
}

fn measure(wl: &dyn Workload, w: &mut World, d: Duration) -> Measured {
    let stats = w.y.db().stats().clone();
    let before = stats.snapshot();
    let server_before = w.y.db().per_server_requests();
    let wal_before = w.wal_dir.as_deref().map_or(0, dir_bytes);
    let a = run_phase(wl, w, Stop::After(d), None);
    let counters = PhaseCounters {
        counters: stats.snapshot().counter_delta(&before),
        server_reqs: w
            .y
            .db()
            .per_server_requests()
            .iter()
            .zip(&server_before)
            .map(|(now, then)| now - then)
            .collect(),
        wal_growth: w
            .wal_dir
            .as_deref()
            .map_or(0, dir_bytes)
            .saturating_sub(wal_before),
        versions_per_object: ratio(
            w.y.db().total_versions() as f64,
            w.y.db().total_objects() as f64,
        ),
    };
    let complete = (a.elapsed_s / WINDOW.as_secs_f64()) as usize;
    let tally = Tally::of(w, complete);
    Measured {
        ops_per_s: tally.ok_ops() as f64 / a.elapsed_s,
        peak_rss_mb: a.peak_rss_mb,
        tally,
        counters,
    }
}

/// Builds `o.setups` deployments one after another and measures each for
/// an equal share of `o.seconds`; end-to-end metrics are medians over the
/// deployments.  The adaptive tree maintenance (load splits, placement,
/// replica promotion) settles differently in each deployment, so a median
/// over several is steadier than any single one.  The last deployment
/// also hosts the traced phase, the checks after it, and the durability
/// check.
pub fn run(wl: &dyn Workload, o: &Opts) -> Report {
    let work_dir = o.out_dir.join(format!("{}-{}", o.name, std::process::id()));
    std::fs::create_dir_all(&work_dir).expect("create the work directory");
    let anchor_ns = local_get_ns();
    let setups = o.setups.max(1);
    let slice = o.seconds / setups as u32;

    let mut setup_s = Vec::new();
    let mut runs: Vec<Measured> = Vec::new();
    let mut bad: Vec<String> = Vec::new();
    let mut traced = None;
    let mut recovery_s = None;
    for rep in 0..setups {
        let t0 = Instant::now();
        let mut w = wl.setup(&work_dir, rep);
        setup_s.push(t0.elapsed().as_secs_f64());
        runs.push(measure(wl, &mut w, slice));
        let last = rep + 1 == setups;
        if last && o.trace {
            if w.wal_dir.is_none() {
                w.fx.wal = Some(WalRung::open(&work_dir.join("rung-wal")));
            }
            let stats = w.y.db().stats().clone();
            traced = Some(traced_phase(wl, &mut w, &stats, slice));
            if let Some(rung) = w.fx.wal.take().filter(WalRung::wrote) {
                let (secs, lost) = rung.crash_and_reopen();
                bad.extend(lost.into_iter().map(|e| format!("after recovery: {e}")));
                recovery_s = Some(secs);
            }
        }
        bad.extend(w.clients.iter().flat_map(|c| c.bad.clone()));
        bad.extend(wl.check(&w));
        if last && w.wal_dir.is_some() {
            let acked: Vec<Acked> = w.clients.iter().map(|c| c.acked.clone()).collect();
            let (secs, y) = crash_and_reopen(w);
            let recovered = wl.verify_recovered(&y, &acked);
            bad.extend(
                recovered
                    .into_iter()
                    .map(|e| format!("after recovery: {e}")),
            );
            recovery_s = Some(secs);
        } else if let Some(dir) = w.wal_dir.clone() {
            drop(w);
            let _ = std::fs::remove_dir_all(dir);
        }
    }
    let _ = std::fs::remove_dir_all(&work_dir);

    // Throughput is the median over the complete windows of every
    // deployment, and each latency percentile the median over blocks of
    // consecutive samples, so a stall of a few seconds, such as a burst of
    // host contention, moves them little.  Write latencies come from the
    // measured phases, or from the set-ups for a workload that reports its
    // set-ups' writes instead.
    let setup_writes = wl.setup_writes();
    let write_seqs: Vec<&Vec<u64>> = match &setup_writes {
        Some(sets) => sets.iter().collect(),
        None => runs.iter().flat_map(|r| &r.tally.write_seqs).collect(),
    };
    let read_blocks = blocks(runs.iter().flat_map(|r| &r.tally.read_seqs));
    let write_blocks = blocks(write_seqs.iter().copied());
    let ops_per_s = median(
        &runs
            .iter()
            .flat_map(|r| &r.tally.ok_per_window)
            .map(|&n| n as f64 / WINDOW.as_secs_f64())
            .collect::<Vec<_>>(),
    );
    let attempted: u64 = runs.iter().map(|r| r.tally.attempted).sum();
    let failed: u64 = runs.iter().map(|r| r.tally.fails.total()).sum();
    let read_samples: usize = runs.iter().map(|r| r.tally.reads()).sum();
    let write_samples: usize = write_seqs.iter().map(|s| s.len()).sum();
    let mut notes = vec![format!(
        "{}: {attempted} ops over {setups} deployments, {failed} failed",
        o.name
    )];
    for (i, r) in runs.iter().enumerate() {
        notes.push(format!(
            "deployment {i}: {:.1} ops/s, {} reads, failures {:?}",
            r.ops_per_s,
            r.tally.reads(),
            r.tally.fails
        ));
    }
    notes.push(block_note("read", &read_blocks));
    notes.push(block_note("write", &write_blocks));
    notes.push(format!(
        "drift anchor baselines.local_get_ns = {anchor_ns:.3}"
    ));
    if let Some(r) = recovery_s {
        notes.push(format!("recovery_s = {r:.6}"));
    }

    let metrics = match traced {
        None => vec![
            m("setup_s", median(&setup_s), "s"),
            m("ops_per_s", ops_per_s, "1/s"),
            m("read_p50_us", block_quantile(&read_blocks, 0.5), "us"),
            m("read_p99_us", block_quantile(&read_blocks, 0.99), "us"),
            m("write_p50_us", block_quantile(&write_blocks, 0.5), "us"),
            m("write_p99_us", block_quantile(&write_blocks, 0.99), "us"),
            // The first deployment's: later ones start in a heap that
            // still holds what the dropped ones freed.
            m("peak_rss_mb", runs[0].peak_rss_mb, "MiB"),
        ],
        Some(t) => {
            let dump = o.out_dir.join(format!("spans-{}-{}.jsonl", o.name, o.seed));
            if let Err(e) = std::fs::write(&dump, render_spans(&t.spans)) {
                notes.push(format!("cannot write {}: {e}", dump.display()));
            }
            let last = runs.last().expect("a measured deployment");
            let mut v = layer_metrics(&last.tally, &last.counters, &t, last.ops_per_s);
            v.extend([
                m("recovery_s", recovery_s.unwrap_or(0.0), "s"),
                m(
                    "ydbt.preload_aborts_per_setup",
                    wl.preload_aborts() as f64 / setups as f64,
                    "count",
                ),
                m("baselines.local_get_ns", anchor_ns, "ns"),
                m("read_samples", read_samples as f64, "count"),
                m("write_samples", write_samples as f64, "count"),
            ]);
            v
        }
    };
    Report {
        correct: bad.is_empty(),
        attempted,
        failed,
        metrics,
        notes,
        bad,
    }
}

/// Per-layer metrics of the last deployment: spans and histograms from
/// its traced phase, counters from its untraced one.
fn layer_metrics(ta: &Tally, win: &PhaseCounters, t: &Traced, ops_per_s: f64) -> Vec<Metric> {
    let c = |name: &str| win.counters.get(name).copied().unwrap_or(0) as f64;
    let h = |name: &str| {
        t.hist
            .get(name)
            .map_or((0.0, 0.0, 0.0), |s| (s.p50 as f64, s.p99 as f64, s.mean))
    };
    let ops = ta.attempted as f64;
    let kop = ops / 1000.0;
    let stmts = ta.stmts as f64;
    let commits = c("kv.commit_1pc") + c("kv.commit_2pc");
    let max_srv = win.server_reqs.iter().copied().max().unwrap_or(0) as f64;
    let mean_srv = win.server_reqs.iter().sum::<u64>() as f64 / win.server_reqs.len().max(1) as f64;
    // The deployment's own logs, or else the durable rung's.
    let own_wal = WalWindow {
        counters: win.counters.clone(),
        hist: t.hist.clone(),
        growth: win.wal_growth,
        user_bytes: ta.user_bytes,
    };
    let wal = t.rung_wal.as_ref().unwrap_or(&own_wal);
    let wc = |name: &str| wal.counters.get(name).copied().unwrap_or(0) as f64;
    let wh = |name: &str| {
        wal.hist
            .get(name)
            .map_or((0.0, 0.0, 0.0), |s| (s.p50 as f64, s.p99 as f64, s.mean))
    };
    let mut v: Vec<Metric> = span_metrics(&t.spans, &t.uncached)
        .into_iter()
        .map(|(name, value)| m(&name, value, "ns"))
        .collect();
    v.extend([
        m(
            "yesquel.stmt_cache_hit_ratio",
            ratio(
                c("sql.stmt_cache_hits"),
                c("sql.stmt_cache_hits") + c("sql.stmt_cache_misses"),
            ),
            "ratio",
        ),
        m(
            "sql.parses_per_stmt",
            ratio(c("sql.parses"), stmts),
            "ratio",
        ),
        m("sql.plans_per_stmt", ratio(c("sql.plans"), stmts), "ratio"),
        m(
            "sql.rows_scanned_per_row_returned",
            ratio(c("sql.rows_scanned"), ta.rows as f64),
            "ratio",
        ),
        m(
            "sql.fetchbacks_per_stmt",
            ratio(c("sql.fetchbacks"), stmts),
            "ratio",
        ),
        m(
            "ydbt.scan_leaf_fetches_per_scan",
            ratio(c("dbt.scan_leaf_fetches"), c("dbt.scans")),
            "ratio",
        ),
        m(
            "ydbt.node_fetches_per_lookup",
            ratio(c("dbt.node_fetches"), c("dbt.lookups")),
            "ratio",
        ),
        m(
            "ydbt.back_downs_per_kop",
            ratio(c("dbt.back_downs"), kop),
            "1/kop",
        ),
        m(
            "ydbt.search_restarts_per_kop",
            ratio(c("dbt.search_restarts"), kop),
            "1/kop",
        ),
        m("ydbt.splits_per_kop", ratio(c("dbt.splits"), kop), "1/kop"),
        m(
            "ydbt.split_waste_ratio",
            ratio(
                c("dbt.split_retries") + c("dbt.split_abandoned"),
                c("dbt.split_requests"),
            ),
            "ratio",
        ),
        m(
            "ydbt.replica_promotions",
            c("dbt.replica_promotions"),
            "count",
        ),
        m(
            "kvstore.commit_prepare_us",
            h("kv.commit_prepare_us").0,
            "us",
        ),
        m("kvstore.commit_decide_us", h("kv.commit_decide_us").0, "us"),
        m("kvstore.commit_apply_us", h("kv.commit_apply_us").0, "us"),
        m(
            "kvstore.conflict_ratio",
            ratio(c("kv.txn_conflicts"), c("kv.txn_started")),
            "ratio",
        ),
        m(
            "kvstore.commit_useful_ratio",
            ratio(c("kv.txn_committed"), commits),
            "ratio",
        ),
        m(
            "kvstore.get_lock_retries_per_kop",
            ratio(c("kv.get_lock_retries"), kop),
            "1/kop",
        ),
        m(
            "kvstore.participants_per_commit",
            ratio(c("kv.commit_participants"), commits),
            "ratio",
        ),
        m(
            "kvstore.versions_per_object",
            win.versions_per_object,
            "ratio",
        ),
        m("rpc.calls_per_op", ratio(c("rpc.calls"), ops), "ratio"),
        m(
            "rpc.bytes_per_op",
            ratio(c("rpc.bytes_sent") + c("rpc.bytes_received"), ops),
            "B",
        ),
        m("rpc.queue_us_p50", h("rpc.queue_us").0, "us"),
        m("rpc.queue_us_p99", h("rpc.queue_us").1, "us"),
        m("rpc.service_us_p50", h("rpc.service_us").0, "us"),
        m("rpc.server_imbalance", ratio(max_srv, mean_srv), "ratio"),
        m("rpc.retries_per_kop", ratio(c("rpc.retries"), kop), "1/kop"),
        m(
            "wal.fsyncs_per_commit",
            ratio(wc("wal.fsyncs"), wc("kv.txn_committed")),
            "ratio",
        ),
        m("wal.group_size_mean", wh("wal.group_size_dist").2, "ratio"),
        m(
            "wal.group_solo_ratio",
            ratio(wc("wal.group_solo"), wc("wal.fsyncs")),
            "ratio",
        ),
        m("wal.append_us_p50", wh("wal.append_us").0, "us"),
        m("wal.fsync_us_p50", wh("wal.fsync_us").0, "us"),
        m("wal.fsync_us_p99", wh("wal.fsync_us").1, "us"),
        m(
            "wal.bytes_per_user_byte",
            ratio(wal.growth as f64, wal.user_bytes as f64),
            "ratio",
        ),
        m(
            "obs.trace_overhead_ratio",
            ratio(ops_per_s - t.ops_per_s, ops_per_s),
            "ratio",
        ),
        m("fail_ratio", ratio(ta.fails.total() as f64, ops), "ratio"),
        m("fail.conflict", ta.fails.conflict as f64, "count"),
        m("fail.indeterminate", ta.fails.indeterminate as f64, "count"),
        m("fail.unavailable", ta.fails.unavailable as f64, "count"),
        m("fail.lock_timeout", ta.fails.lock_timeout as f64, "count"),
        m("fail.other", ta.fails.other as f64, "count"),
    ]);
    v
}
