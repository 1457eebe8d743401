//! The seeded scene mix the `serve` workload submits.
//!
//! Each job is a generated `phantom-scene/1` document: Phantom on a
//! chain of 1–3 trunks of 150 or 155 Mb/s, 2–6 greedy sessions on random
//! sub-paths of the chain, 50–200 ms simulated, and its own run seed.
//! The workload seed fixes the whole sequence; the daemon receives only
//! the documents.
//!
//! The mix is stratified. A job's trace and run time grow with its trunk
//! count times its duration, so every run holds the same set of
//! (trunks, duration) pairs: each trunk count takes a third of the jobs,
//! with durations spread evenly over 50–200 ms; session counts take each
//! level equally often. These shapes follow one fixed shuffled schedule,
//! and the seed picks where in it the mix starts. Which jobs run side by
//! side then hardly depends on the seed. The seed also picks every job's
//! session paths, link rates and delays, and run seed.

/// SplitMix64: a small, well-mixed generator for benchmark inputs.
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// One job of the mix.
#[derive(Clone, Debug)]
pub struct MixJob {
    /// The scene document submitted to the daemon.
    pub scene: String,
    /// The `?seed=` the job runs under.
    pub seed: u64,
    /// Greedy sessions in the scene.
    pub sessions: u64,
    /// Trunks in the chain.
    pub trunks: u64,
    /// Simulated milliseconds.
    pub duration_ms: u64,
}

/// Seed of the fixed schedule of job shapes.
const SCHEDULE_SEED: u64 = 1996;

/// The `n` jobs of the mix for workload seed `seed`.
pub fn generate(seed: u64, n: usize) -> Vec<MixJob> {
    let mut schedule = Rng::new(SCHEDULE_SEED);
    let mut shapes: Vec<(u64, u64)> = (0..n)
        .map(|i| {
            // Slot i has 1 + i % 3 trunks and the duration of its rank
            // among the slots with that trunk count.
            let group = (n - i % 3).div_ceil(3) as u64;
            let rank = (i / 3) as u64;
            (1 + (i % 3) as u64, 50 + 30 * rank / (group - 1).max(1) * 5)
        })
        .collect();
    shuffle(&mut schedule, &mut shapes);
    let mut sessions: Vec<u64> = (0..n).map(|i| 2 + (i % 5) as u64).collect();
    shuffle(&mut schedule, &mut sessions);
    let mut rng = Rng::new(seed);
    let start = rng.range(0, n as u64 - 1) as usize;
    (0..n)
        .map(|i| {
            let k = (start + i) % n;
            job(&mut rng, seed, i, shapes[k].0, sessions[k], shapes[k].1)
        })
        .collect()
}

/// Fisher–Yates shuffle.
fn shuffle<T>(rng: &mut Rng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.range(0, i as u64) as usize);
    }
}

fn job(rng: &mut Rng, seed: u64, i: usize, trunks: u64, sessions: u64, duration_ms: u64) -> MixJob {
    let run_seed = rng.next_u64() % 1_000_000;
    let switches: Vec<String> = (0..=trunks).map(|k| format!("\"s{k}\"")).collect();
    let trunk_docs: Vec<String> = (0..trunks)
        .map(|k| {
            let mbps = [150, 155][rng.range(0, 1) as usize];
            let prop_us = [10, 50, 250][rng.range(0, 2) as usize];
            format!(
                "{{\"a\": \"s{k}\", \"b\": \"s{}\", \"mbps\": {mbps}, \"prop_us\": {prop_us}}}",
                k + 1
            )
        })
        .collect();
    // Each session spans a random run of consecutive switches; count how
    // many cross each trunk to name the busiest one the bottleneck.
    let mut load = vec![0u64; trunks as usize];
    let session_docs: Vec<String> = (0..sessions)
        .map(|s| {
            let from = rng.range(0, trunks - 1);
            let to = rng.range(from + 1, trunks);
            for t in from..to {
                load[t as usize] += 1;
            }
            let path: Vec<String> = (from..=to).map(|k| format!("\"s{k}\"")).collect();
            format!(
                "{{\"id\": \"g{s}\", \"path\": [{}], \"traffic\": {{\"kind\": \"greedy\"}}}}",
                path.join(", ")
            )
        })
        .collect();
    let (bottleneck, n_bottleneck) = load
        .iter()
        .enumerate()
        .max_by_key(|&(k, &n)| (n, std::cmp::Reverse(k)))
        .map(|(k, &n)| (k, n))
        .expect("at least one trunk");
    let scene = format!(
        "{{\n  \"schema\": \"phantom-scene/1\",\n  \"id\": \"mix-{seed}-{i}\",\n  \
         \"describe\": \"serve benchmark mix: {sessions} greedy sessions over {trunks} trunk(s)\",\n  \
         \"algorithm\": \"phantom\",\n  \"duration_ms\": {duration_ms},\n  \
         \"switches\": [{}],\n  \"trunks\": [\n    {}\n  ],\n  \"sessions\": [\n    {}\n  ],\n  \
         \"bottleneck\": {bottleneck},\n  \"analysis\": {{\"n_sessions\": {n_bottleneck}}}\n}}\n",
        switches.join(", "),
        trunk_docs.join(",\n    "),
        session_docs.join(",\n    "),
    );
    MixJob {
        scene,
        seed: run_seed,
        sessions,
        trunks,
        duration_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_seeded_stratified_and_every_scene_validates() {
        let a = generate(3, 40);
        let b = generate(3, 40);
        let c = generate(4, 40);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.scene == y.scene && x.seed == y.seed));
        assert!(a.iter().zip(&c).any(|(x, y)| x.scene != y.scene));
        for j in &a {
            phantom_scene::parse_scene(&j.scene).unwrap_or_else(|e| panic!("{e}\n{}", j.scene));
            assert!((2..=6).contains(&j.sessions));
            assert!((1..=3).contains(&j.trunks));
            assert!((50..=200).contains(&j.duration_ms));
        }
        let shapes = |jobs: &[MixJob]| {
            let mut v: Vec<_> = jobs.iter().map(|j| (j.trunks, j.duration_ms)).collect();
            v.sort();
            v
        };
        assert_eq!(
            shapes(&a),
            shapes(&c),
            "every seed holds the same job shapes"
        );
        assert!(shapes(&a).contains(&(3, 200)) && shapes(&a).contains(&(1, 50)));
    }
}
