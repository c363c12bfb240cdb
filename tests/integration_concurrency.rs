//! Multi-threaded smoke tests: many client threads reading and committing
//! concurrently against the lock-striped server stores.  These tests are
//! about absence of deadlock, lost updates and torn reads under real
//! parallelism, not about throughput.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use yesquel::{KvDatabase, ObjectId, Yesquel};

#[test]
fn concurrent_disjoint_writers_all_commit() {
    let db = Arc::new(KvDatabase::with_servers(4));
    let threads = 8u64;
    let per_thread = 200u64;
    let mut handles = Vec::new();
    for t in 0..threads {
        let db = Arc::clone(&db);
        handles.push(std::thread::spawn(move || {
            let client = db.client();
            for i in 0..per_thread {
                let txn = client.begin();
                txn.put(ObjectId::new(2, t * 100_000 + i), format!("t{t}i{i}"))
                    .unwrap();
                txn.commit().unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let client = db.client();
    let r = client.begin();
    for t in 0..threads {
        for i in (0..per_thread).step_by(37) {
            let v = r
                .get(ObjectId::new(2, t * 100_000 + i))
                .unwrap()
                .expect("committed");
            assert_eq!(&v[..], format!("t{t}i{i}").as_bytes());
        }
    }
    r.commit().unwrap();
}

#[test]
fn concurrent_counter_increments_never_lose_updates() {
    // Writers increment one contended object under first-committer-wins with
    // retry; the final value must equal the number of successful commits.
    let db = Arc::new(KvDatabase::with_servers(4));
    let obj = ObjectId::new(3, 1);
    {
        let c = db.client();
        let t = c.begin();
        t.put(obj, 0u64.to_be_bytes().to_vec()).unwrap();
        t.commit().unwrap();
    }
    let commits = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for _ in 0..6 {
        let db = Arc::clone(&db);
        let commits = Arc::clone(&commits);
        handles.push(std::thread::spawn(move || {
            let client = db.client();
            for _ in 0..50 {
                client
                    .run_txn(|txn| {
                        let cur = txn.get(obj)?.expect("initialised");
                        let mut buf = [0u8; 8];
                        buf.copy_from_slice(&cur[..8]);
                        let next = u64::from_be_bytes(buf) + 1;
                        txn.put(obj, next.to_be_bytes().to_vec())?;
                        Ok(())
                    })
                    .unwrap();
                commits.fetch_add(1, Ordering::SeqCst);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let client = db.client();
    let r = client.begin();
    let v = r.get(obj).unwrap().expect("present");
    let mut buf = [0u8; 8];
    buf.copy_from_slice(&v[..8]);
    assert_eq!(u64::from_be_bytes(buf), commits.load(Ordering::SeqCst));
    r.commit().unwrap();
}

#[test]
fn concurrent_readers_and_writers_on_one_tree() {
    // Readers sweep the tree while writers append; every lookup must return
    // either nothing (not yet committed) or the exact committed value.
    let y = Arc::new(Yesquel::open(4));
    let dbt = y.create_tree(1).unwrap();
    let total = 400u64;

    let writer = {
        let y = Arc::clone(&y);
        let dbt = dbt.clone();
        std::thread::spawn(move || {
            let client = y.db().client();
            for i in 0..total {
                client
                    .run_txn(|txn| {
                        dbt.insert(txn, &i.to_be_bytes(), format!("value{i}").as_bytes())
                    })
                    .unwrap();
            }
        })
    };
    let mut readers = Vec::new();
    for _ in 0..4 {
        let y = Arc::clone(&y);
        let dbt = dbt.clone();
        readers.push(std::thread::spawn(move || {
            let client = y.db().client();
            for round in 0..40u64 {
                let txn = client.begin();
                for i in (0..total).step_by(13) {
                    if let Some(v) = dbt.lookup(&txn, &i.to_be_bytes()).unwrap() {
                        assert_eq!(&v[..], format!("value{i}").as_bytes(), "round {round}");
                    }
                }
                txn.commit().unwrap();
            }
        }));
    }
    writer.join().unwrap();
    for r in readers {
        r.join().unwrap();
    }
    y.engine().wait_for_splits();
    let client = y.db().client();
    let txn = client.begin();
    assert_eq!(dbt.count(&txn).unwrap(), total);
    txn.commit().unwrap();
}

#[test]
fn readers_never_see_half_a_two_server_transfer() {
    // Atomic-visibility oracle: transfers move money between accounts on
    // different servers (so every commit is 2PC, with a window in which
    // both participants hold prepare locks) while read-only transactions
    // sum every balance at their snapshot.  Readers whose snapshot predates
    // a prepare read past its locks; every sum must still be the constant
    // total, i.e. no snapshot ever includes one half of a transfer.
    let db = Arc::new(KvDatabase::with_servers(4));
    let accounts: Arc<Vec<ObjectId>> = Arc::new((0..8).map(|oid| ObjectId::new(4, oid)).collect());
    let servers: std::collections::HashSet<_> = accounts.iter().map(|a| a.home_server(4)).collect();
    assert!(servers.len() >= 2, "accounts must span servers");
    const START: u64 = 1_000;
    let total = START * accounts.len() as u64;
    {
        let t = db.client().begin();
        for a in accounts.iter() {
            t.put(*a, START.to_be_bytes().to_vec()).unwrap();
        }
        t.commit().unwrap();
    }
    fn balance(v: &[u8]) -> u64 {
        u64::from_be_bytes(v[..8].try_into().expect("8-byte balance"))
    }

    let transfers = Arc::new(AtomicU64::new(0));
    let mut writers = Vec::new();
    for w in 0..3u64 {
        let (db, accounts, transfers) = (
            Arc::clone(&db),
            Arc::clone(&accounts),
            Arc::clone(&transfers),
        );
        writers.push(std::thread::spawn(move || {
            let client = db.client();
            let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ (w + 1);
            for _ in 0..150 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let from = accounts[(x % 8) as usize];
                let to = accounts[((x >> 8) % 8) as usize];
                if from.home_server(4) == to.home_server(4) {
                    continue;
                }
                let amount = 1 + (x >> 16) % 50;
                let moved = client.run_txn(|txn| {
                    let a = balance(&txn.get(from)?.expect("account"));
                    let b = balance(&txn.get(to)?.expect("account"));
                    let amount = amount.min(a);
                    txn.put(from, (a - amount).to_be_bytes().to_vec())?;
                    txn.put(to, (b + amount).to_be_bytes().to_vec())?;
                    Ok(())
                });
                if moved.is_ok() {
                    transfers.fetch_add(1, Ordering::SeqCst);
                }
            }
        }));
    }
    let mut readers = Vec::new();
    for _ in 0..3 {
        let (db, accounts) = (Arc::clone(&db), Arc::clone(&accounts));
        readers.push(std::thread::spawn(move || {
            let client = db.client();
            let mut sums = 0u64;
            for _ in 0..300 {
                let txn = client.begin();
                let mut sum = 0u64;
                for a in accounts.iter() {
                    // Yield between reads so transfers prepare and commit
                    // in the middle of the snapshot's reads.
                    std::thread::yield_now();
                    sum += balance(&txn.get(*a).unwrap().expect("account"));
                }
                assert_eq!(
                    sum,
                    total,
                    "snapshot {} saw a partial transfer",
                    txn.start_ts()
                );
                txn.commit().unwrap();
                sums += 1;
            }
            sums
        }));
    }
    for w in writers {
        w.join().unwrap();
    }
    let sums: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
    assert_eq!(sums, 900);
    assert!(transfers.load(Ordering::SeqCst) > 0);
    let (read_past, locked): (u64, u64) = db
        .cluster()
        .servers()
        .iter()
        .map(|s| (s.store().stats().read_past, s.store().stats().locked_reads))
        .fold((0, 0), |(p, l), (dp, dl)| (p + dp, l + dl));
    println!(
        "{} transfers, {sums} sums, {read_past} reads past a prepare lock, {locked} refused",
        transfers.load(Ordering::SeqCst)
    );
}
