//! Seeded input generation: Zipf-popular ids drawn with the library's
//! generators, and the per-row content every check recomputes.

use rand::rngs::StdRng;
use rand::Rng as _;
use yesquel::common::rand_util::{seeded_rng, Zipfian};

/// A client's generator: stream `client` of the run's seed.
pub type Rng = StdRng;

pub fn client_rng(seed: u64, client: usize) -> Rng {
    seeded_rng(seed, client as u64)
}

/// Zipf-distributed ranks over `n` items (the library's YCSB generator),
/// mapped onto ids `1..=n` through a fixed bijection so the hot items are
/// scattered over the key space, as popular web pages are.  The mapping
/// does not depend on the seed: every seed draws from the same popularity
/// ranking, so runs with different seeds measure the same hot set.
#[derive(Debug, Clone)]
pub struct Zipf(Zipfian);

/// Multiplier of the rank → id bijection; prime, so it is coprime with
/// every table size it is used with (all far smaller).
const SCATTER: u64 = 1_000_003;

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Zipf {
        assert!((2..SCATTER).contains(&n), "zipf domain out of range: {n}");
        Zipf(Zipfian::new(n, theta))
    }

    /// A Zipf-popular id in `1..=n`; rank 0, the hottest, maps to id 1.
    pub fn id(&self, rng: &mut Rng) -> i64 {
        ((self.0.next(rng) * SCATTER) % self.0.n()) as i64 + 1
    }
}

/// FNV-1a, used to derive row content and digests.
pub fn fnv(parts: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for p in parts {
        for b in p.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

/// Page title of `id`; titles sort in id order.
pub fn title(id: i64) -> String {
    format!("Page_{id:07}")
}

/// Seeded text of 200–400 lowercase letters and spaces derived from
/// `(seed, a, b)`: the preloaded body of page `a` (with `b == 0`), or the
/// text of an edit.
pub fn text(seed: u64, a: i64, b: u64) -> String {
    let mut rng = seeded_rng(fnv(&[seed, a as u64, b]), 0);
    let len = 200 + rng.gen_range(0..201usize);
    (0..len)
        .map(|_| {
            let r = rng.gen_range(0..32u32) as u8;
            if r >= 26 {
                ' '
            } else {
                (b'a' + r) as char
            }
        })
        .collect()
}

/// Initial view count of page `id`.
pub fn initial_views(id: i64) -> i64 {
    id % 97
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_deterministic_per_seed() {
        let draw = |seed| {
            let z = Zipf::new(10_000, 0.99);
            let mut rng = client_rng(seed, 0);
            (0..1000).map(|_| z.id(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn zipf_stays_in_range_and_is_skewed() {
        let n = 10_000u64;
        let z = Zipf::new(n, 0.99);
        let mut rng = client_rng(3, 0);
        let mut counts = vec![0u32; n as usize + 1];
        for _ in 0..100_000 {
            let id = z.id(&mut rng);
            assert!((1..=n as i64).contains(&id));
            counts[id as usize] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top10: u32 = counts[..10].iter().sum();
        // Under θ ≈ 0.99 the ten hottest of 10k items draw roughly 30% of
        // the traffic; uniform draws would give them 0.1%.
        assert!(top10 > 20_000, "top-10 share too small: {top10}");
    }

    #[test]
    fn text_is_a_function_of_its_inputs() {
        assert_eq!(text(1, 5, 0), text(1, 5, 0));
        assert_ne!(text(1, 5, 0), text(2, 5, 0));
        let t = text(9, 9, 9);
        assert!((200..=400).contains(&t.len()));
    }
}
