//! The wiki workloads: `wiki-read` (read-only page traffic) and
//! `wiki-write` (durable edit traffic) on one schema.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use rand::Rng as _;
use yesquel::common::WalFsyncPolicy;
use yesquel::rpc::TransportKind;
use yesquel::{Error, ResultSet, Value, Yesquel, YesquelConfig};

use crate::client::{value_bytes, Acked, Client, Probe, Rung};
use crate::gen::{initial_views, text, title, Zipf};
use crate::world::{run_phase, Stop, Workload, World};

/// Rows per preload transaction.
const PRELOAD_BATCH: i64 = 50;
/// Rows a title scan asks for.
const SCAN_LIMIT: usize = 10;
/// Share of `wiki-read` statements sent with their values inlined as
/// literals (distinct texts, so the statement cache misses).
const LITERAL_SHARE: f64 = 0.3;
/// Operations per client run before measuring, after the preload: enough
/// for the statement caches and replica sets to settle.
const WARM_OPS_READ: u64 = 4000;
const WARM_OPS_WRITE: u64 = 500;

const PAGE_COLS: &str = "id, title, body, views";

pub struct Wiki {
    pub seed: u64,
    pub pages: i64,
    pub zipf: Zipf,
    /// `wiki-write` (edit traffic over a write-ahead log) when set,
    /// `wiki-read` otherwise.
    pub writes: bool,
    /// Latency of every preload `INSERT` and `COMMIT` that succeeded, ns;
    /// one list per set-up.
    preload_ns: Mutex<Vec<Vec<u64>>>,
    /// Preload transactions that aborted and were retried.
    preload_aborts: AtomicU64,
}

impl Wiki {
    pub fn new(seed: u64, pages: i64, writes: bool) -> Wiki {
        Wiki {
            seed,
            pages,
            zipf: Zipf::new(pages as u64, 0.99),
            writes,
            preload_ns: Mutex::new(Vec::new()),
            preload_aborts: AtomicU64::new(0),
        }
    }

    fn preload(&self, y: &Yesquel) {
        let s = y.session();
        let mut lat = Vec::new();
        let mut aborts = 0;
        // Runs one write statement, keeping its latency when it succeeds.
        let mut write = |sql: &str, params: &[Value]| {
            let t0 = Instant::now();
            let out = s.execute(sql, params);
            if out.is_ok() {
                lat.push(t0.elapsed().as_nanos() as u64);
            }
            out
        };
        for first in (1..=self.pages).step_by(PRELOAD_BATCH as usize) {
            let last = (first + PRELOAD_BATCH - 1).min(self.pages);
            loop {
                let out = s.execute("BEGIN", &[]).and_then(|_| {
                    for id in first..=last {
                        write(
                            "INSERT INTO pages (id, title, body, views) VALUES (?, ?, ?, ?)",
                            &[
                                Value::Int(id),
                                Value::Text(title(id)),
                                Value::Text(text(self.seed, id, 0)),
                                Value::Int(initial_views(id)),
                            ],
                        )?;
                    }
                    write("COMMIT", &[])
                });
                match out {
                    Ok(_) => break,
                    Err(e) if e.is_retryable() => {
                        aborts += 1;
                        if s.in_transaction() {
                            let _ = s.execute("ROLLBACK", &[]);
                        }
                    }
                    Err(e) => panic!("preload failed: {e}"),
                }
            }
        }
        self.preload_ns.lock().expect("preload log").push(lat);
        self.preload_aborts.fetch_add(aborts, Ordering::Relaxed);
    }

    fn page_by_id(&self, c: &mut Client, id: i64, literal: bool) {
        let (sql, params) = if literal {
            (
                format!("SELECT {PAGE_COLS} FROM pages WHERE id = {id}"),
                vec![],
            )
        } else {
            (
                format!("SELECT {PAGE_COLS} FROM pages WHERE id = ?"),
                vec![Value::Int(id)],
            )
        };
        self.probe(
            c,
            &sql,
            literal,
            Some(Rung::Row { table: "pages", id }),
            None,
        );
        let views = (!self.writes).then(|| initial_views(id));
        c.timed(false, |c| {
            let rs = c.exec(&sql, &params)?;
            let r = one_row(&rs).and_then(|row| check_page(self.seed, row, id, views));
            c.check(r.map_err(|e| format!("{sql} [{id}]: {e}")));
            Ok(())
        });
    }

    fn page_by_title(&self, c: &mut Client, id: i64, literal: bool) {
        let t = title(id);
        let (sql, params) = if literal {
            (
                format!("SELECT {PAGE_COLS} FROM pages WHERE title = '{t}'"),
                vec![],
            )
        } else {
            (
                format!("SELECT {PAGE_COLS} FROM pages WHERE title = ?"),
                vec![Value::Text(t)],
            )
        };
        self.probe(c, &sql, literal, Some(Rung::Title { id }), None);
        let views = (!self.writes).then(|| initial_views(id));
        c.timed(false, |c| {
            let rs = c.exec(&sql, &params)?;
            let r = one_row(&rs).and_then(|row| check_page(self.seed, row, id, views));
            c.check(r.map_err(|e| format!("{sql} [{id}]: {e}")));
            Ok(())
        });
    }

    fn title_scan(&self, c: &mut Client, id: i64, literal: bool) {
        let t = title(id);
        let (sql, params) = if literal {
            (
                format!(
                    "SELECT id, title, views FROM pages WHERE title >= '{t}' ORDER BY title LIMIT {SCAN_LIMIT}"
                ),
                vec![],
            )
        } else {
            (
                format!(
                    "SELECT id, title, views FROM pages WHERE title >= ? ORDER BY title LIMIT {SCAN_LIMIT}"
                ),
                vec![Value::Text(t)],
            )
        };
        let rung = Rung::TitleScan {
            id,
            limit: SCAN_LIMIT,
        };
        self.probe(c, &sql, literal, Some(rung), None);
        c.timed(false, |c| {
            let rs = c.exec(&sql, &params)?;
            let r = check_scan(&rs, id, self.pages, SCAN_LIMIT, !self.writes);
            c.check(r);
            Ok(())
        });
    }

    fn insert_revision(&self, c: &mut Client, page: i64) {
        let nonce = c.rng.next_u64() | 1;
        let params = vec![
            Value::Int(page),
            Value::Text(edit_body(self.seed, page, nonce)),
        ];
        let sql = "INSERT INTO revisions (page_id, body) VALUES (?, ?)";
        let bytes = value_bytes(&params);
        self.probe(c, sql, false, None, Some(bytes as usize));
        c.timed(true, |c| {
            c.user_bytes += bytes;
            match c.exec(sql, &params) {
                Ok(rs) => {
                    let rowid = rs
                        .last_rowid
                        .ok_or_else(|| Error::Internal("insert returned no rowid".into()))?;
                    c.acked.revisions.insert(rowid, (page, nonce));
                    Ok(())
                }
                Err(e) => {
                    if matches!(e, Error::Indeterminate(_)) {
                        c.acked.revisions_unknown += 1;
                    }
                    Err(e)
                }
            }
        });
    }

    fn bump_views(&self, c: &mut Client, id: i64) {
        let sql = "UPDATE pages SET views = views + 1 WHERE id = ?";
        self.probe(
            c,
            sql,
            false,
            Some(Rung::Row { table: "pages", id }),
            Some(8),
        );
        c.timed(true, |c| {
            c.user_bytes += 8;
            match c.exec(sql, &[Value::Int(id)]) {
                Ok(rs) => {
                    c.check(expect(rs.rows_affected == 1, || {
                        format!(
                            "views update of page {id} touched {} rows",
                            rs.rows_affected
                        )
                    }));
                    c.acked.increments += 1;
                    Ok(())
                }
                Err(e) => {
                    if matches!(e, Error::Indeterminate(_)) {
                        c.acked.increments_unknown += 1;
                    }
                    Err(e)
                }
            }
        });
    }

    /// An edit: read the page by title, rewrite its body, and record a
    /// revision with the same text, in one explicit transaction.
    fn edit(&self, c: &mut Client, id: i64) {
        let nonce = c.rng.next_u64() | 1;
        let body = edit_body(self.seed, id, nonce);
        let read = format!("SELECT {PAGE_COLS} FROM pages WHERE title = ?");
        let bytes = 2 * body.len() as u64 + 16;
        self.probe(
            c,
            &read,
            false,
            Some(Rung::Title { id }),
            Some(body.len() + 8),
        );
        let seed = self.seed;
        c.timed(true, |c| {
            c.user_bytes += bytes;
            let out = c.txn(|c| {
                let rs = c.exec(&read, &[Value::Text(title(id))])?;
                let r = one_row(&rs).and_then(|row| check_page(seed, row, id, None));
                c.check(r);
                c.exec(
                    "UPDATE pages SET body = ? WHERE id = ?",
                    &[Value::Text(body.clone()), Value::Int(id)],
                )?;
                let rs = c.exec(
                    "INSERT INTO revisions (page_id, body) VALUES (?, ?)",
                    &[Value::Int(id), Value::Text(body.clone())],
                )?;
                rs.last_rowid
                    .ok_or_else(|| Error::Internal("insert returned no rowid".into()))
            });
            match out {
                Ok(rowid) => {
                    c.acked.revisions.insert(rowid, (id, nonce));
                    Ok(())
                }
                Err(e) => {
                    if matches!(e, Error::Indeterminate(_)) {
                        c.acked.revisions_unknown += 1;
                    }
                    Err(e)
                }
            }
        });
    }

    fn latest_revisions(&self, c: &mut Client, page: i64) {
        let sql =
            "SELECT id, page_id, body FROM revisions WHERE page_id = ? ORDER BY id DESC LIMIT 5";
        self.probe(c, sql, false, None, None);
        let seed = self.seed;
        c.timed(false, |c| {
            let rs = c.exec(sql, &[Value::Int(page)])?;
            let r = check_latest_revisions(seed, &rs, page, 5);
            c.check(r);
            Ok(())
        });
    }

    fn probe(
        &self,
        c: &mut Client,
        sql: &str,
        uncached: bool,
        read: Option<Rung>,
        write_bytes: Option<usize>,
    ) {
        if c.traced_op.is_some() {
            c.probe = Some(Probe {
                sql: sql.to_string(),
                uncached,
                read,
                write_bytes,
            });
        }
    }

    /// Checks a wiki-write database against the acknowledged writes.
    pub fn verify_state(&self, y: &Yesquel, acked: &[Acked]) -> Vec<String> {
        let mut bad = Vec::new();
        let mut note = |r: std::result::Result<(), String>| {
            if let Err(m) = r {
                bad.push(m);
            }
        };
        let q = |sql: &str| y.execute(sql, &[]).map_err(|e| format!("{sql}: {e}"));
        match q("SELECT SUM(views) FROM pages") {
            Ok(rs) => note(check_views_sum(&rs, self.pages, acked)),
            Err(e) => note(Err(e)),
        }
        match q("SELECT id, title, body, views FROM pages") {
            Ok(rs) => {
                note(expect(rs.rows.len() as i64 == self.pages, || {
                    format!("{} pages, expected {}", rs.rows.len(), self.pages)
                }));
                for row in &rs.rows {
                    let id = match row[0] {
                        Value::Int(id) => id,
                        _ => -1,
                    };
                    note(check_page(self.seed, row, id, None));
                }
            }
            Err(e) => note(Err(e)),
        }
        if self.writes {
            match q("SELECT id, page_id, body FROM revisions") {
                Ok(rs) => note(check_revisions(self.seed, &rs, acked)),
                Err(e) => note(Err(e)),
            }
        }
        bad.truncate(16);
        bad
    }
}

impl Workload for Wiki {
    fn setup(&self, work_dir: &Path, rep: usize) -> World {
        let mut cfg = YesquelConfig::with_servers(4);
        if self.writes {
            let dir = work_dir.join(format!("wal-{rep}"));
            let _ = std::fs::remove_dir_all(&dir);
            cfg.kv.wal_dir = Some(dir);
            cfg.kv.wal_fsync = WalFsyncPolicy::Group { window_us: 100 };
        }
        let mut w = World::open(cfg, TransportKind::Direct);
        let mut ddl = String::from(
            "CREATE TABLE pages (id INTEGER PRIMARY KEY, title TEXT NOT NULL, body TEXT NOT NULL, views INT NOT NULL);
             CREATE UNIQUE INDEX pages_title ON pages (title);",
        );
        if self.writes {
            ddl.push_str(
                "CREATE TABLE revisions (id INTEGER PRIMARY KEY, page_id INT NOT NULL, body TEXT NOT NULL);
                 CREATE INDEX revisions_page ON revisions (page_id);",
            );
        }
        w.y.execute_script(&ddl).expect("create the wiki schema");
        self.preload(&w.y);
        let trees = w.table_trees("pages");
        w.fx.add_table("pages", trees);
        w.y.engine().wait_for_splits();
        w.open_clients(self.seed);
        let warm = if self.writes {
            WARM_OPS_WRITE
        } else {
            WARM_OPS_READ
        };
        run_phase(self, &mut w, Stop::OpsPerClient(warm), None);
        w.y.engine().wait_for_splits();
        w
    }

    fn op(&self, w: &World, c: &mut Client) {
        let _ = w;
        let r = c.rng.gen::<f64>();
        let id = self.zipf.id(&mut c.rng);
        if !self.writes {
            let literal = c.rng.gen_bool(LITERAL_SHARE);
            if r < 0.45 {
                self.page_by_id(c, id, literal)
            } else if r < 0.80 {
                self.page_by_title(c, id, literal)
            } else {
                self.title_scan(c, id, literal)
            }
        } else if r < 0.25 {
            self.insert_revision(c, id)
        } else if r < 0.50 {
            self.bump_views(c, id)
        } else if r < 0.60 {
            self.edit(c, id)
        } else if r < 0.80 {
            self.page_by_id(c, id, false)
        } else if r < 0.90 {
            self.page_by_title(c, id, false)
        } else {
            self.latest_revisions(c, id)
        }
    }

    fn check(&self, w: &World) -> Vec<String> {
        let acked: Vec<Acked> = w.clients.iter().map(|c| c.acked.clone()).collect();
        self.verify_state(&w.y, &acked)
    }

    fn verify_recovered(&self, y: &Yesquel, acked: &[Acked]) -> Vec<String> {
        self.verify_state(y, acked)
    }

    fn rss_after_ops(&self) -> u64 {
        if self.writes {
            2_000
        } else {
            100_000
        }
    }

    fn preload_aborts(&self) -> u64 {
        self.preload_aborts.load(Ordering::Relaxed)
    }

    fn setup_writes(&self) -> Option<Vec<Vec<u64>>> {
        (!self.writes).then(|| self.preload_ns.lock().expect("preload log").clone())
    }
}

/// Body of an edit: its nonce, then seeded text, so any reader can verify
/// it without knowing which edit won.
pub fn edit_body(seed: u64, page: i64, nonce: u64) -> String {
    format!("{nonce:016x}:{}", text(seed, page, nonce))
}

fn expect(ok: bool, msg: impl FnOnce() -> String) -> std::result::Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(msg())
    }
}

fn one_row(rs: &ResultSet) -> std::result::Result<&[Value], String> {
    match rs.rows.as_slice() {
        [row] => Ok(row),
        rows => Err(format!("expected one row, got {}", rows.len())),
    }
}

fn body_ok(seed: u64, id: i64, body: &str) -> bool {
    if body == text(seed, id, 0) {
        return true;
    }
    match body.split_once(':') {
        Some((nonce, rest)) if nonce.len() == 16 => {
            u64::from_str_radix(nonce, 16).is_ok_and(|n| n != 0 && rest == text(seed, id, n))
        }
        _ => false,
    }
}

/// A `(id, title, body, views)` row of page `id`: title and body are
/// functions of the id (the body either as preloaded or as some edit),
/// and `views`, when given, is exact.
pub fn check_page(
    seed: u64,
    row: &[Value],
    id: i64,
    views: Option<i64>,
) -> std::result::Result<(), String> {
    let [Value::Int(got), Value::Text(t), Value::Text(body), Value::Int(v)] = row else {
        return Err(format!("page {id}: malformed row {row:?}"));
    };
    expect(*got == id, || format!("asked for page {id}, got {got}"))?;
    expect(*t == title(id), || format!("page {id}: wrong title {t}"))?;
    expect(body_ok(seed, id, body), || {
        format!("page {id}: body digest mismatch")
    })?;
    match views {
        Some(want) => expect(*v == want, || {
            format!("page {id}: views {v}, expected {want}")
        }),
        None => expect(*v >= initial_views(id), || {
            format!("page {id}: views {v} below the preload")
        }),
    }
}

/// A title scan from page `start`: `(id, title, views)` rows in title
/// order, no more than `limit`, exactly the pages that follow.
pub fn check_scan(
    rs: &ResultSet,
    start: i64,
    pages: i64,
    limit: usize,
    exact_views: bool,
) -> std::result::Result<(), String> {
    let want = (pages - start + 1).clamp(0, limit as i64) as usize;
    expect(rs.rows.len() <= limit, || {
        format!(
            "scan returned {} rows over its LIMIT {limit}",
            rs.rows.len()
        )
    })?;
    expect(rs.rows.len() == want, || {
        format!(
            "scan from page {start} returned {} rows, expected {want}",
            rs.rows.len()
        )
    })?;
    let mut prev: Option<&str> = None;
    for (i, row) in rs.rows.iter().enumerate() {
        let id = start + i as i64;
        let [Value::Int(got), Value::Text(t), Value::Int(v)] = row.as_slice() else {
            return Err(format!("scan: malformed row {row:?}"));
        };
        expect(prev.is_none_or(|p| p < t.as_str()), || {
            format!("scan out of order at {t}")
        })?;
        expect(*got == id && *t == title(id), || {
            format!("scan from page {start}: row {i} is page {got} ({t})")
        })?;
        expect(!exact_views || *v == initial_views(id), || {
            format!("page {id}: views {v} in scan")
        })?;
        prev = Some(t);
    }
    Ok(())
}

/// The newest revisions of `page`: newest first, at most `limit`, each an
/// edit of that page.
pub fn check_latest_revisions(
    seed: u64,
    rs: &ResultSet,
    page: i64,
    limit: usize,
) -> std::result::Result<(), String> {
    expect(rs.rows.len() <= limit, || {
        "revisions over LIMIT".to_string()
    })?;
    let mut prev = i64::MAX;
    for row in &rs.rows {
        let [Value::Int(id), Value::Int(p), Value::Text(body)] = row.as_slice() else {
            return Err(format!("revision: malformed row {row:?}"));
        };
        expect(
            *p == page && body_ok(seed, page, body) && body != &text(seed, page, 0),
            || format!("revision {id} is not an edit of page {page}"),
        )?;
        expect(*id < prev, || {
            format!("revisions of page {page} not newest first")
        })?;
        prev = *id;
    }
    Ok(())
}

/// `SUM(views)` equals the preload total plus every acknowledged
/// increment, plus at most the increments whose outcome is unknown.
pub fn check_views_sum(
    rs: &ResultSet,
    pages: i64,
    acked: &[Acked],
) -> std::result::Result<(), String> {
    let base: i64 = (1..=pages).map(initial_views).sum();
    let done: i64 = acked.iter().map(|a| a.increments as i64).sum();
    let unknown: i64 = acked.iter().map(|a| a.increments_unknown as i64).sum();
    let got = match rs.rows.as_slice() {
        [row] => match row.as_slice() {
            [Value::Int(v)] => *v,
            other => return Err(format!("SUM(views) returned {other:?}")),
        },
        rows => return Err(format!("SUM(views) returned {} rows", rows.len())),
    };
    expect((base + done..=base + done + unknown).contains(&got), || {
        format!(
            "SUM(views) = {got}, expected {} (+ up to {unknown} unknown)",
            base + done
        )
    })
}

/// Every acknowledged revision is present with its text; no revision is
/// unaccounted for beyond those whose outcome is unknown.
pub fn check_revisions(
    seed: u64,
    rs: &ResultSet,
    acked: &[Acked],
) -> std::result::Result<(), String> {
    let mut stored = std::collections::BTreeMap::new();
    for row in &rs.rows {
        let [Value::Int(id), Value::Int(page), Value::Text(body)] = row.as_slice() else {
            return Err(format!("revision: malformed row {row:?}"));
        };
        stored.insert(*id, (*page, body.as_str()));
    }
    let mut expected = 0;
    let mut unknown = 0;
    for a in acked {
        expected += a.revisions.len();
        unknown += a.revisions_unknown as usize;
        for (rowid, (page, nonce)) in &a.revisions {
            let Some((p, body)) = stored.get(rowid) else {
                return Err(format!("acknowledged revision {rowid} is missing"));
            };
            expect(
                *p == *page && *body == edit_body(seed, *page, *nonce),
                || format!("acknowledged revision {rowid} has the wrong text"),
            )?;
        }
    }
    expect(
        (expected..=expected + unknown).contains(&stored.len()),
        || {
            format!(
                "{} revisions stored, {expected} acknowledged (+ up to {unknown} unknown)",
                stored.len()
            )
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rs(rows: Vec<Vec<Value>>) -> ResultSet {
        ResultSet {
            rows,
            ..ResultSet::default()
        }
    }

    fn page_row(seed: u64, id: i64) -> Vec<Value> {
        vec![
            Value::Int(id),
            Value::Text(title(id)),
            Value::Text(text(seed, id, 0)),
            Value::Int(initial_views(id)),
        ]
    }

    #[test]
    fn page_check_rejects_corrupted_rows() {
        let good = page_row(5, 42);
        assert!(check_page(5, &good, 42, Some(initial_views(42))).is_ok());
        assert!(check_page(5, &good, 43, None).is_err(), "wrong id");
        let mut bad = good.clone();
        if let Value::Text(b) = &mut bad[2] {
            b.replace_range(0..1, if b.starts_with('z') { "y" } else { "z" });
        }
        assert!(check_page(5, &bad, 42, None).is_err(), "corrupted body");
        let mut bad = good.clone();
        bad[3] = Value::Int(initial_views(42) + 1);
        assert!(check_page(5, &bad, 42, Some(initial_views(42))).is_err());
        let edited = vec![
            Value::Int(42),
            Value::Text(title(42)),
            Value::Text(edit_body(5, 42, 77)),
            Value::Int(99),
        ];
        assert!(check_page(5, &edited, 42, None).is_ok());
        assert!(check_page(6, &edited, 42, None).is_err(), "other seed");
    }

    #[test]
    fn scan_check_rejects_disorder_and_overrun() {
        let row = |id: i64| {
            vec![
                Value::Int(id),
                Value::Text(title(id)),
                Value::Int(initial_views(id)),
            ]
        };
        let good = rs((10..13).map(row).collect());
        assert!(check_scan(&good, 10, 12, 10, true).is_ok());
        assert!(check_scan(&good, 10, 100, 10, true).is_err(), "too short");
        assert!(check_scan(&good, 10, 100, 2, true).is_err(), "over LIMIT");
        let swapped = rs(vec![row(11), row(10), row(12)]);
        assert!(check_scan(&swapped, 10, 12, 10, true).is_err());
    }

    #[test]
    fn state_checks_reject_lost_writes() {
        let mut a = Acked {
            increments: 3,
            ..Acked::default()
        };
        a.revisions.insert(7, (2, 9));
        let base: i64 = (1..=4).map(initial_views).sum();
        let sum = |v| rs(vec![vec![Value::Int(v)]]);
        assert!(check_views_sum(&sum(base + 3), 4, std::slice::from_ref(&a)).is_ok());
        assert!(check_views_sum(&sum(base + 2), 4, std::slice::from_ref(&a)).is_err());
        let rev = |id, page, nonce| {
            vec![
                Value::Int(id),
                Value::Int(page),
                Value::Text(edit_body(1, page, nonce)),
            ]
        };
        assert!(check_revisions(1, &rs(vec![rev(7, 2, 9)]), std::slice::from_ref(&a)).is_ok());
        assert!(check_revisions(1, &rs(vec![]), std::slice::from_ref(&a)).is_err());
        assert!(check_revisions(1, &rs(vec![rev(7, 2, 8)]), std::slice::from_ref(&a)).is_err());
        assert!(
            check_revisions(
                1,
                &rs(vec![rev(7, 2, 9), rev(8, 2, 9)]),
                std::slice::from_ref(&a)
            )
            .is_err(),
            "an unacknowledged extra revision"
        );
        let latest = rs(vec![rev(8, 2, 1), rev(7, 2, 9)]);
        assert!(check_latest_revisions(1, &latest, 2, 5).is_ok());
        let wrong_order = rs(vec![rev(7, 2, 9), rev(8, 2, 1)]);
        assert!(check_latest_revisions(1, &wrong_order, 2, 5).is_err());
    }
}
