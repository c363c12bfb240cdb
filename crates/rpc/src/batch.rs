//! Request batching: coalescing same-server requests into one frame.
//!
//! [`BatchingTransport`] is the RPC-plane analogue of the write-ahead log's
//! group commit.  A request round (see [`Transport::call_round`]) becomes
//! the batch leader of every server in it whose queue is idle, and parks as
//! a follower behind the leader of every server that already has one.  A
//! leader waits a small window for concurrent callers to pile their
//! requests in, then ships each led server's group as one multi-request
//! frame, all frames of the round together as one inner round.  One frame —
//! one network-model round trip, one queue handoff on a threaded transport
//! — carries many logical requests, amortising per-message costs exactly as
//! one fsync amortises over a commit group.
//!
//! A round ships every frame it leads before it waits on any reply it is
//! parked for, so rounds that lead and follow each other on different
//! servers always make progress.
//!
//! The decorator composes below [`crate::FaultyTransport`]: faults are drawn
//! per *logical* message (a dropped request is dropped before it can join a
//! batch, a duplicate joins as its own logical message), so chaos tests keep
//! their per-message semantics while survivors still coalesce.  A batch of
//! one is sent bare — no envelope, no overhead — which keeps single-threaded
//! callers at exactly one inner request per request.

use std::sync::Arc;

use crossbeam::channel::{bounded, Sender};
use parking_lot::Mutex;
use yesquel_common::stats::{Counter, Histogram, StatsRegistry};
use yesquel_common::{Error, Result, RpcBatchConfig, ServerId};

use crate::transport::{Service, Transport};

/// A [`Service`] whose request type can carry several requests in one frame.
///
/// `make_batch` wraps a group of requests into one envelope request;
/// `split_batch` recovers the per-request responses from the envelope
/// response (in the same order), returning `None` if the response is not an
/// envelope — the transport surfaces that as an internal error rather than
/// misdelivering responses.
pub trait BatchableService: Service {
    /// Wraps `reqs` into one envelope request.
    fn make_batch(reqs: Vec<Self::Request>) -> Self::Request;
    /// Unwraps an envelope response into per-request responses.
    fn split_batch(resp: Self::Response) -> Option<Vec<Self::Response>>;
}

/// A request parked with the batch leader, paired with the channel its
/// caller is blocked on.
struct Parked<S: Service> {
    req: S::Request,
    reply: Sender<Result<S::Response>>,
}

/// Per-server coalescing state: whether a leader is collecting, and the
/// requests parked behind it.
struct ServerQueue<S: Service> {
    leader_active: bool,
    parked: Vec<Parked<S>>,
}

/// Transport decorator that coalesces same-server requests issued within a
/// small window into one multi-request frame.  See the module docs.
pub struct BatchingTransport<S: BatchableService> {
    inner: Arc<dyn Transport<S>>,
    queues: Vec<Mutex<ServerQueue<S>>>,
    window: std::time::Duration,
    /// Nagle-style extra wait: a leader whose window closed with no
    /// followers re-arms and lingers up to this long for one to arrive
    /// before shipping solo.  Zero disables lingering.
    linger: std::time::Duration,
    max_batch: usize,
    /// Frames that carried ≥ 2 logical requests.
    batches: Arc<Counter>,
    /// Logical requests that travelled inside a multi-request frame.
    batched_requests: Arc<Counter>,
    /// Leader rounds that found no companions and sent the request bare.
    solo: Arc<Counter>,
    /// Leader rounds that lingered past the window hoping for a follower.
    linger_waits: Arc<Counter>,
    /// Logical requests per shipped frame (solo frames count as 1; recorded
    /// only while `Obs::timing_on`).
    occupancy: Arc<Histogram>,
    registry: StatsRegistry,
}

impl<S: BatchableService> BatchingTransport<S> {
    /// Wraps `inner`, coalescing per the given window and size cap.
    pub fn new(
        inner: Arc<dyn Transport<S>>,
        cfg: RpcBatchConfig,
        registry: &StatsRegistry,
    ) -> Self {
        let queues = (0..inner.num_servers())
            .map(|_| {
                Mutex::new(ServerQueue {
                    leader_active: false,
                    parked: Vec::new(),
                })
            })
            .collect();
        BatchingTransport {
            inner,
            queues,
            window: std::time::Duration::from_micros(cfg.window_us),
            linger: std::time::Duration::from_micros(cfg.linger_us),
            max_batch: cfg.max_batch.max(2),
            batches: registry.counter("rpc.batches"),
            batched_requests: registry.counter("rpc.batched_requests"),
            solo: registry.counter("rpc.batch_solo"),
            linger_waits: registry.counter("rpc.batch_linger_waits"),
            occupancy: registry.histogram("rpc.batch_occupancy"),
            registry: registry.clone(),
        }
    }

    /// Unwraps a frame's envelope response into its `total` per-request
    /// results.  If the whole frame failed (dropped, server down,
    /// malformed), every request in it shares its fate.
    fn split(total: usize, resp: Result<S::Response>) -> Vec<Result<S::Response>> {
        let resps = resp.and_then(|resp| match S::split_batch(resp) {
            Some(resps) if resps.len() == total => Ok(resps),
            Some(resps) => Err(Error::Internal(format!(
                "batch of {total} answered with {} responses",
                resps.len()
            ))),
            None => Err(Error::Internal(
                "batch answered with a non-batch response".into(),
            )),
        });
        match resps {
            Ok(resps) => resps.into_iter().map(Ok).collect(),
            Err(e) => (0..total).map(|_| Err(e.clone())).collect(),
        }
    }

    /// Waits out the collection window of the servers this round leads:
    /// one `window`, then, if no led server gained a follower, up to one
    /// `linger` more (Nagle-style, polling in slices).  Lingering trades the
    /// leader's latency for fewer frames under trickling concurrency; off by
    /// default (`linger_us = 0`).
    fn collect(&self, led: &[(usize, ServerId, S::Request)]) {
        if !self.window.is_zero() {
            std::thread::sleep(self.window);
        }
        let gained_follower = || {
            led.iter()
                .any(|&(_, s, _)| !self.queues[s].lock().parked.is_empty())
        };
        if self.linger.is_zero() || gained_follower() {
            return;
        }
        self.linger_waits.inc();
        let deadline = std::time::Instant::now() + self.linger;
        let slice = (self.linger / 8).max(std::time::Duration::from_micros(5));
        loop {
            let now = std::time::Instant::now();
            if now >= deadline {
                break;
            }
            std::thread::sleep(slice.min(deadline - now));
            if gained_follower() {
                break;
            }
        }
    }
}

impl<S: BatchableService> Transport<S> for BatchingTransport<S> {
    /// Leads every server of the round that has no collecting leader and
    /// parks behind the leader of every other one.  After the window it
    /// ships each led server's frame — its own request first, then the
    /// followers in parking order — plus any bare requests as one inner
    /// round, and only then waits for the replies it is parked on.  Because
    /// every round ships what it leads before it waits, two rounds that
    /// lead and follow each other on two servers cannot deadlock.
    fn call_round(&self, reqs: Vec<(ServerId, S::Request)>) -> Vec<Result<S::Response>> {
        let mut out: Vec<Option<Result<S::Response>>> = (0..reqs.len()).map(|_| None).collect();
        let (mut led, mut parked) = (Vec::new(), Vec::new());
        // The inner round, and per inner request its slot in `out` and the
        // replies of the followers that travel in its frame.
        let (mut wire, mut shipped) = (Vec::new(), Vec::new());
        for (i, (server, req)) in reqs.into_iter().enumerate() {
            // Unknown server: sent bare, so the inner transport produces
            // its error.
            let mut q = match self.queues.get(server) {
                Some(queue) => queue.lock(),
                None => {
                    wire.push((server, req));
                    shipped.push((i, Vec::new()));
                    continue;
                }
            };
            if !q.leader_active {
                q.leader_active = true;
                led.push((i, server, req));
            } else if q.parked.len() + 1 < self.max_batch {
                let (tx, rx) = bounded(1);
                q.parked.push(Parked { req, reply: tx });
                parked.push((i, rx));
            } else {
                // The forming frame is full: send bare rather than stall
                // behind a frame this request cannot join.
                self.solo.inc();
                wire.push((server, req));
                shipped.push((i, Vec::new()));
            }
        }
        if !led.is_empty() {
            self.collect(&led);
        }
        let timing = self.registry.obs().timing_on();
        for (i, server, mine) in led {
            let followers = {
                let mut q = self.queues[server].lock();
                q.leader_active = false;
                std::mem::take(&mut q.parked)
            };
            let total = followers.len() + 1;
            if timing {
                self.occupancy.record(total as u64);
            }
            if followers.is_empty() {
                self.solo.inc();
                wire.push((server, mine));
                shipped.push((i, Vec::new()));
                continue;
            }
            self.batches.inc();
            self.batched_requests.add(total as u64);
            let (reqs, replies): (Vec<_>, Vec<_>) =
                followers.into_iter().map(|p| (p.req, p.reply)).unzip();
            let frame = std::iter::once(mine).chain(reqs).collect();
            wire.push((server, S::make_batch(frame)));
            shipped.push((i, replies));
        }
        let resps = if wire.is_empty() {
            Vec::new()
        } else {
            self.inner.call_round(wire)
        };
        for ((i, replies), resp) in shipped.into_iter().zip(resps) {
            if replies.is_empty() {
                out[i] = Some(resp);
                continue;
            }
            let mut results = Self::split(replies.len() + 1, resp).into_iter();
            out[i] = results.next();
            for (reply, result) in replies.into_iter().zip(results) {
                let _ = reply.send(result);
            }
        }
        for (i, rx) in parked {
            out[i] = Some(
                rx.recv()
                    .unwrap_or_else(|_| Err(Error::Internal("batch leader vanished".into()))),
            );
        }
        out.into_iter()
            .map(|r| r.expect("every request of the round was answered"))
            .collect()
    }

    fn num_servers(&self) -> usize {
        self.inner.num_servers()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netmodel::NetworkModel;
    use crate::transport::DirectTransport;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Echo service whose batch envelope is a `Vec` tagged by a sentinel
    /// first element; counts inner calls so tests can observe coalescing.
    struct Echo {
        calls: AtomicU64,
        /// Every request received, frames included.
        frames: Mutex<Vec<Vec<u64>>>,
    }

    const TAG: u64 = u64::MAX;

    impl Service for Echo {
        type Request = Vec<u64>;
        type Response = Vec<u64>;
        fn call(&self, req: Vec<u64>) -> Vec<u64> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            self.frames.lock().push(req.clone());
            req
        }
    }

    impl BatchableService for Echo {
        fn make_batch(reqs: Vec<Vec<u64>>) -> Vec<u64> {
            let mut out = vec![TAG];
            for r in reqs {
                out.push(r.len() as u64);
                out.extend(r);
            }
            out
        }
        fn split_batch(resp: Vec<u64>) -> Option<Vec<Vec<u64>>> {
            if resp.first() != Some(&TAG) {
                return None;
            }
            let mut out = Vec::new();
            let mut i = 1;
            while i < resp.len() {
                let n = resp[i] as usize;
                out.push(resp[i + 1..i + 1 + n].to_vec());
                i += 1 + n;
            }
            Some(out)
        }
    }

    fn deployment(window_us: u64) -> (Arc<BatchingTransport<Echo>>, Arc<Echo>, StatsRegistry) {
        deployment_linger(window_us, 0)
    }

    fn deployment_linger(
        window_us: u64,
        linger_us: u64,
    ) -> (Arc<BatchingTransport<Echo>>, Arc<Echo>, StatsRegistry) {
        let (t, mut servers, reg) = deployment_of(1, window_us, linger_us);
        (t, servers.pop().expect("one server"), reg)
    }

    fn deployment_of(
        nservers: usize,
        window_us: u64,
        linger_us: u64,
    ) -> (Arc<BatchingTransport<Echo>>, Vec<Arc<Echo>>, StatsRegistry) {
        let reg = StatsRegistry::new();
        let servers: Vec<Arc<Echo>> = (0..nservers)
            .map(|_| {
                Arc::new(Echo {
                    calls: AtomicU64::new(0),
                    frames: Mutex::new(Vec::new()),
                })
            })
            .collect();
        let inner = Arc::new(DirectTransport::new(
            servers.clone(),
            NetworkModel::free(reg.clone()),
            reg.clone(),
        ));
        let t = Arc::new(BatchingTransport::new(
            inner,
            RpcBatchConfig {
                window_us,
                max_batch: 8,
                linger_us,
            },
            &reg,
        ));
        (t, servers, reg)
    }

    #[test]
    fn solo_requests_skip_the_envelope() {
        let (t, srv, reg) = deployment(0);
        for i in 0..10u64 {
            assert_eq!(t.call(0, vec![i]).unwrap(), vec![i]);
        }
        assert_eq!(srv.calls.load(Ordering::SeqCst), 10);
        assert_eq!(reg.counter("rpc.batched_requests").get(), 0);
        assert_eq!(reg.counter("rpc.batch_solo").get(), 10);
    }

    #[test]
    fn concurrent_requests_coalesce() {
        let (t, srv, reg) = deployment(2_000);
        let mut handles = Vec::new();
        for c in 0..8u64 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for i in 0..20u64 {
                    let v = c * 100 + i;
                    assert_eq!(t.call(0, vec![v]).unwrap(), vec![v]);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let total = 8 * 20;
        let batched = reg.counter("rpc.batched_requests").get();
        let solo = reg.counter("rpc.batch_solo").get();
        assert_eq!(batched + solo, total, "every logical request accounted");
        assert!(batched > 0, "a 2ms window with 8 threads must coalesce");
        // Coalescing means strictly fewer inner calls than logical requests.
        assert!(srv.calls.load(Ordering::SeqCst) < total);
    }

    #[test]
    fn unknown_server_propagates_inner_error() {
        let (t, _srv, _reg) = deployment(0);
        assert!(t.call(5, vec![1]).is_err());
    }

    #[test]
    fn linger_rescues_a_trickling_follower() {
        // Window 0 closes empty every time; a generous linger lets a
        // follower that arrives shortly after still join the frame.
        let (t, srv, reg) = deployment_linger(0, 20_000);
        let t2 = Arc::clone(&t);
        let follower = std::thread::spawn(move || {
            // Arrive well inside the leader's linger.
            std::thread::sleep(std::time::Duration::from_millis(2));
            t2.call(0, vec![7]).unwrap()
        });
        assert_eq!(t.call(0, vec![3]).unwrap(), vec![3]);
        assert_eq!(follower.join().unwrap(), vec![7]);
        assert!(reg.counter("rpc.batch_linger_waits").get() >= 1);
        // Both logical requests travelled in one frame.
        assert_eq!(reg.counter("rpc.batched_requests").get(), 2);
        assert_eq!(srv.calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn crossing_rounds_on_two_servers_both_finish() {
        // Round A asks servers 0 then 1, round B servers 1 then 0.  While
        // the test holds server 1's queue, B starts and waits for it, then
        // A leads server 0 and waits for it too.  Released, B (the first
        // waiter) leads server 1 and parks behind A on server 0, and A parks
        // behind B on server 1: each round follows the other.  Both finish
        // only because a round ships what it leads before it waits for what
        // it follows.  The pauses only order the arrivals; the final
        // assertion checks that the rounds really crossed.
        let (t, servers, reg) = deployment_of(2, 2_000, 0);
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let pause = || std::thread::sleep(std::time::Duration::from_millis(5));
        for i in 0..10u64 {
            let gate = t.queues[1].lock();
            let mut rounds = Vec::new();
            for (first, second, base) in [(1, 0, 200), (0, 1, 0)] {
                let (t, done_tx) = (Arc::clone(&t), done_tx.clone());
                rounds.push(std::thread::spawn(move || {
                    let out = t.call_round(vec![
                        (first, vec![base + i]),
                        (second, vec![base + 100 + i]),
                    ]);
                    let _ = done_tx.send(out.into_iter().collect::<Result<Vec<_>>>());
                }));
                pause();
            }
            drop(gate);
            for _ in 0..2 {
                let out = done_rx
                    .recv_timeout(std::time::Duration::from_secs(10))
                    .expect("crossing rounds deadlocked");
                assert_eq!(out.expect("both requests answered").len(), 2);
            }
            for round in rounds {
                round.join().expect("round thread panicked");
            }
        }
        // At least one frame coalesced both rounds' requests, and in at
        // least one the frame of server 1 was led by round B while round A
        // led server 0's: the rounds crossed.
        assert!(reg.counter("rpc.batches").get() > 0);
        let framed = |s: usize, frame: Vec<u64>| servers[s].frames.lock().contains(&frame);
        let crossed = (0..10u64).any(|i| {
            framed(0, vec![TAG, 1, i, 1, 300 + i]) && framed(1, vec![TAG, 1, 200 + i, 1, 100 + i])
        });
        assert!(crossed, "the rounds never crossed");
    }

    #[test]
    fn a_round_leads_every_idle_server_in_one_inner_round() {
        let (t, servers, reg) = deployment_of(3, 0, 0);
        let out = t.call_round(vec![(2, vec![2]), (0, vec![0]), (9, vec![9])]);
        assert_eq!(out[0].as_ref().unwrap(), &vec![2]);
        assert_eq!(out[1].as_ref().unwrap(), &vec![0]);
        assert!(
            out[2].is_err(),
            "an unknown server fails only its own entry"
        );
        let calls: Vec<u64> = servers
            .iter()
            .map(|s| s.calls.load(Ordering::SeqCst))
            .collect();
        assert_eq!(calls, vec![1, 0, 1]);
        assert_eq!(reg.counter("rpc.batch_solo").get(), 2);
        assert_eq!(reg.counter("rpc.calls").get(), 2);
    }

    #[test]
    fn zero_linger_never_waits() {
        let (t, _srv, reg) = deployment(0);
        t.call(0, vec![1]).unwrap();
        assert_eq!(reg.counter("rpc.batch_linger_waits").get(), 0);
    }
}
