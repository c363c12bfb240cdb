//! The deployment under test, the workload interface, and the closed-loop
//! phase runner shared by every workload.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use yesquel::kv::KvDatabase;
use yesquel::rpc::TransportKind;
use yesquel::{Dbt, Yesquel, YesquelConfig};

use crate::client::{Acked, Client};
use crate::layers::Fixtures;
use crate::measure::{peak_rss_mb, reset_peak_rss, Tracer};

/// Closed-loop client threads (one `Session` each).
pub const CLIENTS: usize = 2;

/// A traced run replays the lower layers for 1 in this many operations.
pub const SAMPLE_EVERY: u64 = 64;

/// A built deployment: the database, its clients, and the benchmark-owned
/// objects the traced run's rungs write to.
pub struct World {
    pub y: Yesquel,
    pub cfg: YesquelConfig,
    pub clients: Vec<Client>,
    pub fx: Fixtures,
    /// Write-ahead-log directory, when the deployment has one.
    pub wal_dir: Option<PathBuf>,
}

impl World {
    pub fn open(cfg: YesquelConfig, transport: TransportKind) -> World {
        let wal_dir = cfg.kv.wal_dir.clone();
        let y = Yesquel::open_db(KvDatabase::with_transport(cfg.clone(), transport))
            .expect("bootstrap the SQL catalog");
        World {
            fx: Fixtures::new(&y),
            y,
            cfg,
            clients: Vec::new(),
            wal_dir,
        }
    }

    /// Opens the closed-loop clients, each with its own session.
    pub fn open_clients(&mut self, seed: u64) {
        self.clients = (0..CLIENTS)
            .map(|i| Client::new(i, self.y.new_session().expect("open a session"), seed))
            .collect();
    }

    /// The tree holding table `name`'s rows and the trees of its indexes.
    pub fn table_trees(&self, name: &str) -> (Dbt, Vec<Dbt>) {
        let session = self.y.session();
        let txn = self.y.begin();
        let schema = session
            .catalog()
            .require_table(&txn, name)
            .expect("table exists");
        txn.abort();
        (
            self.y.tree(schema.tree),
            schema.indexes.iter().map(|i| self.y.tree(i.tree)).collect(),
        )
    }
}

/// One benchmark workload.
pub trait Workload: Sync {
    /// Builds, preloads and warms a deployment.
    fn setup(&self, work_dir: &Path, rep: usize) -> World;

    /// Runs one operation of the mix on `c`, timing it.  In a traced
    /// operation the workload leaves a [`crate::client::Probe`] behind.
    fn op(&self, w: &World, c: &mut Client);

    /// Checks the database state against what the clients were told.
    fn check(&self, w: &World) -> Vec<String>;

    /// Operation count after which the workload's peak memory is read.
    fn rss_after_ops(&self) -> u64;

    /// Preload transactions that aborted and were retried, over every
    /// set-up so far.
    fn preload_aborts(&self) -> u64;

    /// Checks a deployment reopened from its write-ahead logs against the
    /// writes acknowledged before the power loss.
    fn verify_recovered(&self, y: &Yesquel, acked: &[Acked]) -> Vec<String> {
        let _ = (y, acked);
        Vec::new()
    }

    /// Write latencies the workload reports instead of measured-phase
    /// writes, one list per set-up (a read-only mix reports its set-ups'
    /// write transactions).
    fn setup_writes(&self) -> Option<Vec<Vec<u64>>> {
        None
    }
}

/// When a phase stops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    After(Duration),
    OpsPerClient(u64),
}

/// What a phase measured beyond the clients' own records.
#[derive(Debug, Clone)]
pub struct Phase {
    pub elapsed_s: f64,
    pub peak_rss_mb: f64,
}

/// Drives every client in a closed loop until `stop`.  With `trace`, 1 in
/// [`SAMPLE_EVERY`] operations per client is traced and its lower layers
/// replayed.
pub fn run_phase(wl: &dyn Workload, w: &mut World, stop: Stop, trace: Option<Instant>) -> Phase {
    let rss_reset = reset_peak_rss();
    let started = Instant::now();
    for c in &mut w.clients {
        c.reset_phase(started);
        c.tracer = trace.map(|epoch| Tracer::new(epoch, (c.idx as u64) << 48));
    }
    let rss_at = wl.rss_after_ops();
    let done = AtomicU64::new(0);
    let rss_bits = AtomicU64::new(0);
    let World { clients, .. } = w;
    let mut clients = std::mem::take(clients);
    {
        let w: &World = w;
        std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter_mut()
                .map(|c| {
                    let (done, rss_bits) = (&done, &rss_bits);
                    s.spawn(move || {
                        let mut n = 0u64;
                        loop {
                            let keep_going = match stop {
                                Stop::After(d) => started.elapsed() < d,
                                Stop::OpsPerClient(k) => n < k,
                            };
                            if !keep_going {
                                break;
                            }
                            let traced = c.tracer.is_some() && n.is_multiple_of(SAMPLE_EVERY);
                            if traced {
                                crate::layers::traced_op(wl, w, c);
                            } else {
                                wl.op(w, c);
                            }
                            n += 1;
                            if done.fetch_add(1, Ordering::Relaxed) + 1 == rss_at {
                                rss_bits.store(peak_rss_mb().to_bits(), Ordering::Relaxed);
                            }
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("client thread panicked");
            }
        });
    }
    let elapsed_s = started.elapsed().as_secs_f64();
    w.clients = clients;
    let mut rss = f64::from_bits(rss_bits.load(Ordering::Relaxed));
    if rss == 0.0 {
        // The phase ended before the fixed amount of work: report its end.
        rss = peak_rss_mb();
    }
    if !rss_reset {
        eprintln!("note: peak RSS could not be reset; it includes set-up");
    }
    Phase {
        elapsed_s,
        peak_rss_mb: rss,
    }
}
