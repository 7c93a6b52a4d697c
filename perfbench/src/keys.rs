//! Seeded request streams for the serving workloads.
//!
//! Each client draws keys from its own splitmix64 stream, seeded from the
//! workload seed and the client index, so a run's traffic replays from the
//! seed alone whatever the thread interleaving.

use aicomp_store::SplitMix64;

/// A fetch key: chunk index and the chop factor asked for (0 = stored).
pub type Key = (u32, u8);

/// Seed of client `client`'s stream under workload seed `seed`.
pub fn client_seed(seed: u64, client: usize) -> u64 {
    let mut mix = SplitMix64(seed ^ 0x5EED_CAFE);
    for _ in 0..=client {
        mix.next();
    }
    mix.next()
}

/// One client's infinite, replayable key stream over a working set.
#[derive(Debug, Clone)]
pub struct KeyStream<'a> {
    rng: SplitMix64,
    keys: &'a [Key],
}

impl<'a> KeyStream<'a> {
    /// Stream for `client` under `seed`, drawing uniformly from `keys`.
    pub fn new(seed: u64, client: usize, keys: &'a [Key]) -> KeyStream<'a> {
        assert!(!keys.is_empty(), "a key stream needs a working set");
        KeyStream { rng: SplitMix64(client_seed(seed, client)), keys }
    }

    /// The next key.
    pub fn next_key(&mut self) -> Key {
        self.keys[(self.rng.next() % self.keys.len() as u64) as usize]
    }
}

/// Which traffic a serving workload sends, relative to the server cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServePlan {
    /// Server cache capacity, in decoded chunks.
    pub cache_entries: usize,
    /// Every key the clients draw from.
    pub keys: Vec<Key>,
}

impl ServePlan {
    /// Cache-resident traffic: `window` consecutive chunks from a seeded
    /// start, at the stored fidelity. The window is at most half the cache,
    /// so LRU never evicts a working-set entry once warm.
    pub fn hot(seed: u64, chunks: u32, window: u32, cache_entries: usize) -> ServePlan {
        assert!(window <= chunks, "window fits the container");
        let start = (SplitMix64(seed).next() % (chunks - window + 1) as u64) as u32;
        let keys = (start..start + window).map(|c| (c, 0)).collect();
        ServePlan { cache_entries, keys }
    }

    /// Cache-busting traffic: every chunk, half at the stored fidelity and
    /// half at prefix chop factor `coarse_cf`.
    pub fn cold(chunks: u32, coarse_cf: u8, cache_entries: usize) -> ServePlan {
        let keys = (0..chunks).flat_map(|c| [(c, 0), (c, coarse_cf)]).collect();
        ServePlan { cache_entries, keys }
    }

    /// Distinct chunks the keys touch.
    pub fn distinct_chunks(&self) -> usize {
        let mut c: Vec<u32> = self.keys.iter().map(|k| k.0).collect();
        c.sort_unstable();
        c.dedup();
        c.len()
    }

    /// Does every key fit in at most half the cache?
    pub fn fits_half_cache(&self) -> bool {
        2 * self.keys.len() <= self.cache_entries
    }

    /// Do the keys span at least 8× the cache in distinct chunks?
    pub fn busts_cache(&self) -> bool {
        self.distinct_chunks() >= 8 * self.cache_entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draw(seed: u64, client: usize, keys: &[Key], n: usize) -> Vec<Key> {
        let mut s = KeyStream::new(seed, client, keys);
        (0..n).map(|_| s.next_key()).collect()
    }

    #[test]
    fn key_streams_replay_from_the_seed() {
        let plan = ServePlan::cold(128, 2, 16);
        assert_eq!(draw(7, 0, &plan.keys, 500), draw(7, 0, &plan.keys, 500));
        assert_ne!(draw(7, 0, &plan.keys, 500), draw(7, 1, &plan.keys, 500));
        assert_ne!(draw(7, 0, &plan.keys, 500), draw(8, 0, &plan.keys, 500));
        assert_eq!(ServePlan::hot(9, 128, 32, 64), ServePlan::hot(9, 128, 32, 64));
    }

    #[test]
    fn streams_cover_the_working_set_evenly() {
        let plan = ServePlan::cold(64, 2, 8);
        let drawn = draw(3, 1, &plan.keys, 64_000);
        let coarse = drawn.iter().filter(|k| k.1 == 2).count();
        assert!((31_000..33_000).contains(&coarse), "{coarse} coarse of 64000");
        let mut seen: Vec<Key> = drawn;
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), plan.keys.len());
    }

    #[test]
    fn working_sets_are_bounded_by_the_cache() {
        for seed in 0..50 {
            let hot = ServePlan::hot(seed, 128, 32, 64);
            assert!(hot.fits_half_cache() && !hot.busts_cache());
            assert!(hot.keys.iter().all(|k| k.0 < 128 && k.1 == 0));
        }
        let cold = ServePlan::cold(128, 2, 16);
        assert!(cold.busts_cache() && !cold.fits_half_cache());
        assert_eq!(cold.distinct_chunks(), 128);
        // One chunk fewer and the cold plan no longer spans 8× the cache.
        assert!(!ServePlan::cold(127, 2, 16).busts_cache());
        assert!(!ServePlan::hot(1, 128, 33, 64).fits_half_cache());
    }
}
