//! End-to-end benchmark of SQL web workloads on an in-process Yesquel
//! deployment, with per-layer attribution from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path webbench/Cargo.toml -- \
//!     --workload wiki-read --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.  See `README.md`.

mod client;
mod gen;
mod layers;
mod measure;
mod net;
mod run;
mod wiki;
mod world;

use std::path::Path;
use std::time::Duration;

use crate::world::Workload;

/// Deployments built and measured per run; every end-to-end metric is the
/// median over them.
const SETUPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 30, false);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(val()?),
            "--seed" => seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.max(1),
        trace,
    })
}

/// Builds a workload at its benchmark size.
fn workload(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "wiki-read" => Box::new(wiki::Wiki::new(seed, 50_000, false)),
        "wiki-write" => Box::new(wiki::Wiki::new(seed, 20_000, true)),
        "net-txn" => Box::new(net::NetTxn::new(seed, 4_000)),
        _ => return None,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("webbench: {e}");
        std::process::exit(2);
    });
    let Some(wl) = workload(&args.workload, args.seed) else {
        eprintln!("webbench: unknown workload {}", args.workload);
        std::process::exit(2);
    };
    let report = run::run(
        wl.as_ref(),
        &run::Opts {
            name: args.workload,
            seed: args.seed,
            seconds: Duration::from_secs(args.seconds),
            trace: args.trace,
            setups: SETUPS,
            out_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
        },
    );
    for e in report.bad.iter().take(10) {
        eprintln!("check failed: {e}");
    }
    for n in &report.notes {
        println!("{n}");
    }
    println!("{}", report.json());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(wl: &dyn Workload, name: &str, trace: bool) -> run::Report {
        run::run(
            wl,
            &run::Opts {
                name: format!("smoke-{name}"),
                seed: 7,
                seconds: Duration::from_secs(2),
                trace,
                setups: 1,
                out_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
            },
        )
    }

    fn assert_clean(r: &run::Report) {
        assert!(r.correct, "checks failed: {:?}", r.bad);
        assert!(r.attempted > 0);
        assert_eq!(r.failed, 0, "{:?}", r.notes);
    }

    /// `(name, unit)` of every metric `BENCHMARK.json` lists in `section`.
    fn contract(section: &str) -> Vec<(String, String)> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let body = text
            .split(&format!("\"{section}\""))
            .nth(1)
            .expect("section present");
        let body = &body[..body.find(']').expect("section closes")];
        let field = |entry: &str, key: &str| {
            let rest = entry.split(&format!("\"{key}\": \"")).nth(1)?;
            Some(rest[..rest.find('"')?].to_string())
        };
        body.split('{')
            .filter_map(|e| Some((field(e, "name")?, field(e, "unit")?)))
            .collect()
    }

    fn assert_carries(r: &run::Report, section: &str) {
        let json = r.json();
        let want = contract(section);
        assert!(!want.is_empty());
        for (name, unit) in &want {
            let entry = format!("\"{name}\": {{\"value\": ");
            let at = json
                .find(&entry)
                .unwrap_or_else(|| panic!("{section} metric {name} missing"));
            assert!(
                json[at..].starts_with(&entry)
                    && json[at..]
                        .split('}')
                        .next()
                        .unwrap()
                        .ends_with(&format!("\"unit\": \"{unit}\"")),
                "{name} lacks unit {unit}"
            );
        }
        assert_eq!(
            r.metrics.len(),
            want.len(),
            "metrics beyond the {section} list"
        );
    }

    #[test]
    fn wiki_read_smoke_checks_and_reports_every_metric() {
        let wl = wiki::Wiki::new(7, 2_000, false);
        let r = smoke(&wl, "wiki-read", false);
        assert_clean(&r);
        assert_carries(&r, "end_to_end");
        let r = smoke(&wl, "wiki-read", true);
        assert_clean(&r);
        assert_carries(&r, "per_layer");
    }

    #[test]
    fn net_txn_smoke_checks_and_reports_every_metric() {
        let wl = net::NetTxn::new(7, 400);
        let r = smoke(&wl, "net-txn", false);
        assert_clean(&r);
        assert_carries(&r, "end_to_end");
        let r = smoke(&wl, "net-txn", true);
        assert_clean(&r);
        assert_carries(&r, "per_layer");
        // Its transfers are replayed through the durable rung, so the log
        // is measured and its recovery checked.
        let value = |name: &str| r.metrics.iter().find(|x| x.name == name).map(|x| x.value);
        assert!(value("recovery_s").is_some_and(|v| v > 0.0));
        assert!(value("wal.fsyncs_per_commit").is_some_and(|v| v > 0.0));
        assert!(value("wal.fsync_us_p50").is_some_and(|v| v > 0.0));
    }

    #[test]
    fn wiki_write_smoke_passes_its_durability_checks() {
        let wl = wiki::Wiki::new(7, 2_000, true);
        let r = smoke(&wl, "wiki-write", true);
        assert_clean(&r);
        let recovery = r.metrics.iter().find(|x| x.name == "recovery_s");
        assert!(recovery.is_some_and(|x| x.value > 0.0));
    }
}
