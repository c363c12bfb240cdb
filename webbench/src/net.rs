//! `net-txn`: bank-style transfers over the modelled network.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use rand::Rng as _;
use yesquel::rpc::TransportKind;
use yesquel::{Error, NetConfig, ResultSet, Value, YesquelConfig};

use crate::client::{Client, Probe, Rung};
use crate::gen::Zipf;
use crate::world::{run_phase, Stop, Workload, World};

/// Opening balance of every account.
const OPENING: i64 = 1000;
/// Rows per preload transaction.
const PRELOAD_BATCH: i64 = 100;
/// Operations per client run before measuring.
const WARM_OPS: u64 = 1000;
/// Share of operations that are point selects; the rest are transfers.
/// Reads are seven times cheaper than transfers, so at this share a run
/// collects enough of both for steady tail percentiles.
const READ_SHARE: f64 = 0.7;

/// 50 µs slept one-way latency plus 500 µs slept service time per request
/// on one worker per server: server capacity, not host CPU, bounds
/// throughput.
fn modelled_net() -> NetConfig {
    NetConfig {
        one_way_latency_us: 50,
        bytes_per_us: 0,
        sleep_latency: true,
        service_time_us: 500,
    }
}

pub struct NetTxn {
    pub seed: u64,
    pub accounts: i64,
    pub zipf: Zipf,
    /// Preload transactions that aborted and were retried.
    preload_aborts: AtomicU64,
}

impl NetTxn {
    pub fn new(seed: u64, accounts: i64) -> NetTxn {
        NetTxn {
            seed,
            accounts,
            zipf: Zipf::new(accounts as u64, 0.99),
            preload_aborts: AtomicU64::new(0),
        }
    }

    /// The account half the table away from `a`: always on another leaf.
    fn partner(&self, a: i64) -> i64 {
        (a - 1 + self.accounts / 2) % self.accounts + 1
    }
}

impl Workload for NetTxn {
    fn setup(&self, _work_dir: &Path, _rep: usize) -> World {
        let mut cfg = YesquelConfig::with_servers(4);
        cfg.net = modelled_net();
        let mut w = World::open(
            cfg,
            TransportKind::Threaded {
                workers_per_server: 1,
            },
        );
        w.y.execute(
            "CREATE TABLE accounts (id INTEGER PRIMARY KEY, balance INT NOT NULL)",
            &[],
        )
        .expect("create accounts");
        let s = w.y.session();
        for first in (1..=self.accounts).step_by(PRELOAD_BATCH as usize) {
            let last = (first + PRELOAD_BATCH - 1).min(self.accounts);
            loop {
                let out = s.execute("BEGIN", &[]).and_then(|_| {
                    for id in first..=last {
                        s.execute(
                            "INSERT INTO accounts (id, balance) VALUES (?, ?)",
                            &[Value::Int(id), Value::Int(OPENING)],
                        )?;
                    }
                    s.execute("COMMIT", &[])
                });
                match out {
                    Ok(_) => break,
                    Err(e) if e.is_retryable() => {
                        self.preload_aborts.fetch_add(1, Ordering::Relaxed);
                        if s.in_transaction() {
                            let _ = s.execute("ROLLBACK", &[]);
                        }
                    }
                    Err(e) => panic!("preload failed: {e}"),
                }
            }
        }
        let trees = w.table_trees("accounts");
        w.fx.add_table("accounts", trees);
        w.y.engine().wait_for_splits();
        w.open_clients(self.seed);
        run_phase(self, &mut w, Stop::OpsPerClient(WARM_OPS), None);
        w.y.engine().wait_for_splits();
        w
    }

    fn op(&self, _w: &World, c: &mut Client) {
        let a = self.zipf.id(&mut c.rng);
        if c.rng.gen_bool(READ_SHARE) {
            let sql = "SELECT id, balance FROM accounts WHERE id = ?";
            if c.traced_op.is_some() {
                c.probe = Some(Probe {
                    sql: sql.into(),
                    uncached: false,
                    read: Some(Rung::Row {
                        table: "accounts",
                        id: a,
                    }),
                    write_bytes: None,
                });
            }
            c.timed(false, |c| {
                let rs = c.exec(sql, &[Value::Int(a)])?;
                c.check(check_account(&rs, a));
                Ok(())
            });
        } else {
            let b = self.partner(a);
            let amount = 1 + c.rng.gen_range(0..10i64);
            let debit = "UPDATE accounts SET balance = balance - ? WHERE id = ?";
            let credit = "UPDATE accounts SET balance = balance + ? WHERE id = ?";
            if c.traced_op.is_some() {
                c.probe = Some(Probe {
                    sql: debit.into(),
                    uncached: false,
                    read: Some(Rung::Row {
                        table: "accounts",
                        id: a,
                    }),
                    write_bytes: Some(16),
                });
            }
            c.timed(true, |c| {
                c.user_bytes += 32;
                c.txn(|c| {
                    for (sql, id) in [(debit, a), (credit, b)] {
                        let rs = c.exec(sql, &[Value::Int(amount), Value::Int(id)])?;
                        if rs.rows_affected != 1 {
                            return Err(Error::Internal(format!(
                                "transfer touched {} rows of account {id}",
                                rs.rows_affected
                            )));
                        }
                    }
                    Ok(())
                })
            });
        }
    }

    fn check(&self, w: &World) -> Vec<String> {
        match w
            .y
            .execute("SELECT SUM(balance), COUNT(*) FROM accounts", &[])
        {
            Ok(rs) => check_conserved(&rs, self.accounts)
                .err()
                .into_iter()
                .collect(),
            Err(e) => vec![format!("balance sum: {e}")],
        }
    }

    fn rss_after_ops(&self) -> u64 {
        1_500
    }

    fn preload_aborts(&self) -> u64 {
        self.preload_aborts.load(Ordering::Relaxed)
    }
}

fn check_account(rs: &ResultSet, id: i64) -> Result<(), String> {
    match rs.rows.as_slice() {
        [row] if matches!(row.as_slice(), [Value::Int(got), Value::Int(_)] if *got == id) => Ok(()),
        rows => Err(format!("account {id}: got {rows:?}")),
    }
}

/// Transfers move money, never make or lose it.
pub fn check_conserved(rs: &ResultSet, accounts: i64) -> Result<(), String> {
    match rs.rows.as_slice() {
        [row] => match row.as_slice() {
            [Value::Int(sum), Value::Int(n)] if *sum == accounts * OPENING && *n == accounts => {
                Ok(())
            }
            other => Err(format!(
                "balances not conserved: (sum, count) = {other:?}, expected ({}, {accounts})",
                accounts * OPENING
            )),
        },
        rows => Err(format!("balance sum returned {} rows", rows.len())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conservation_check_rejects_a_lost_update() {
        let rs = |sum, n| ResultSet {
            rows: vec![vec![Value::Int(sum), Value::Int(n)]],
            ..ResultSet::default()
        };
        assert!(check_conserved(&rs(10 * OPENING, 10), 10).is_ok());
        assert!(check_conserved(&rs(10 * OPENING - 3, 10), 10).is_err());
        assert!(check_conserved(&rs(10 * OPENING, 9), 10).is_err());
        assert!(check_account(&rs(5, 1000), 5).is_ok());
        assert!(check_account(&rs(6, 1000), 5).is_err());
    }
}
