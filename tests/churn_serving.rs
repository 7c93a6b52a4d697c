//! Live cluster reconfiguration end-to-end: a map push on a running
//! cluster must be invisible to readers — every request admitted before
//! the push is answered at the old epoch (drain), every request after it
//! is either served or redirected by the new one (handoff), and nothing
//! is ever lost or answered twice. On top of the conservation property,
//! the machinery must stay deterministic: killing a shard, detecting it
//! with the seeded failure detector, and routing around it via an epoch
//! bump replays the exact same counters across two runs with the same
//! seed. Hedged reads are pinned the same way:
//! with one deliberately slow shard, the number of hedges fired, won,
//! and wasted is a pure function of the ring.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use aicomp::serve::{
    Client, ErrorCode, FailureDetector, RobustClient, RobustConfig, ServeConfig, ServeError,
    Server, ServerHandle, ShardMap, ShardMember, ShardRole, WireFaultPlan,
};
use aicomp::store::writer::pack_file;
use aicomp::store::{RetryPolicy, StoreOptions};
use aicomp::{DczReader, Tensor};

const CHANNELS: usize = 2;
const N: usize = 16;
const CF: usize = 4;
const CHUNK: usize = 4;
const SAMPLES: usize = 18;
const COARSE: u8 = 2;
const CHUNKS: u32 = SAMPLES.div_ceil(CHUNK) as u32;
const CONTAINERS: u32 = 2;

fn sample(container: usize, i: usize) -> Tensor {
    Tensor::from_vec(
        (0..CHANNELS * N * N)
            .map(|k| ((k * 23 + i * 37 + container * 113) % 61) as f32 / 7.0 - 4.0)
            .collect(),
        [CHANNELS, N, N],
    )
    .unwrap()
}

fn packed(tag: &str) -> Vec<PathBuf> {
    (0..CONTAINERS as usize)
        .map(|c| {
            let path = std::env::temp_dir()
                .join(format!("aicomp_churn_{tag}_{c}_{}.dcz", std::process::id()));
            let opts = StoreOptions::dct(N, CF, CHANNELS, CHUNK);
            pack_file(&path, &opts, (0..SAMPLES).map(move |i| sample(c, i))).unwrap();
            path
        })
        .collect()
}

/// Direct (server-free) decodes of every chunk at both fidelities — the
/// ground truth every fetch is compared against, bit for bit.
fn reference(paths: &[PathBuf]) -> HashMap<(u32, u32, u8), Vec<u32>> {
    let mut map = HashMap::new();
    for (c, path) in paths.iter().enumerate() {
        let mut reader = DczReader::open(path).unwrap();
        for chunk in 0..reader.chunk_count() {
            for cf in [CF as u8, COARSE] {
                let t = reader.decompress_chunk_at(chunk, cf as usize).unwrap();
                map.insert(
                    (c as u32, chunk as u32, cf),
                    t.data().iter().map(|v: &f32| v.to_bits()).collect::<Vec<u32>>(),
                );
            }
        }
    }
    map
}

/// Reserve `n` distinct loopback ports (grab ephemeral, release, rebind).
fn reserve_ports(n: usize) -> Vec<u16> {
    let listeners: Vec<TcpListener> =
        (0..n).map(|_| TcpListener::bind("127.0.0.1:0").unwrap()).collect();
    listeners.iter().map(|l| l.local_addr().unwrap().port()).collect()
}

/// Start an `n`-shard cluster sharing one epoch-1 map; `tweak` lets a
/// test slow one shard down or shrink the worker pool per member.
fn start_cluster(
    paths: &[PathBuf],
    n: usize,
    ring_seed: u64,
    tweak: impl Fn(usize, &mut ServeConfig),
) -> (ShardMap, Vec<ServerHandle>) {
    let ports = reserve_ports(n);
    let members: Vec<ShardMember> = ports
        .iter()
        .enumerate()
        .map(|(i, &p)| ShardMember { name: format!("s{i}"), addr: format!("127.0.0.1:{p}") })
        .collect();
    let map = ShardMap::new(1, ring_seed, 128, 2, members);
    let handles = (0..n)
        .map(|i| {
            let mut config = ServeConfig {
                shard: Some(ShardRole { map: map.clone(), index: i }),
                ..ServeConfig::default()
            };
            tweak(i, &mut config);
            Server::bind(map.members[i].addr.as_str(), paths, config).unwrap().spawn()
        })
        .collect();
    (map, handles)
}

/// Every (container, chunk, fidelity) triple the walks cover.
fn all_keys() -> Vec<(u32, u32, u8)> {
    let mut keys = Vec::new();
    for c in 0..CONTAINERS {
        for chunk in 0..CHUNKS {
            for cf in [0u8, COARSE] {
                keys.push((c, chunk, cf));
            }
        }
    }
    keys
}

/// SplitMix64 step — walk order is a pure function of the test seed.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn shuffled(keys: &[(u32, u32, u8)], state: &mut u64) -> Vec<(u32, u32, u8)> {
    let mut v = keys.to_vec();
    for i in (1..v.len()).rev() {
        let j = (mix(state) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

fn verify(
    client: &mut RobustClient,
    want: &HashMap<(u32, u32, u8), Vec<u32>>,
    (c, chunk, cf): (u32, u32, u8),
) {
    let got = client.fetch(c, chunk, cf).unwrap();
    let eff = if cf == 0 { CF as u8 } else { cf };
    let bits: Vec<u32> = got.data.iter().map(|v| v.to_bits()).collect();
    assert_eq!(bits, want[&(c, chunk, eff)], "container {c} chunk {chunk} cf {eff}");
}

/// Tentpole conservation property: pushing a new map while clients are
/// actively walking the keyspace loses nothing — every fetch issued
/// before, during, and after the reconfiguration is answered bit-
/// identically to a direct decode. Also pins the install rule on the
/// wire: an idempotent re-push acks without installing, and stale or
/// same-epoch-conflicting pushes are typed rejections.
#[test]
fn map_push_under_concurrent_load_loses_no_requests() {
    let paths = packed("load");
    let want = Arc::new(reference(&paths));
    let (map, handles) = start_cluster(&paths, 3, 42, |_, _| {});
    let seed_addr: SocketAddr = map.members[0].addr.parse().unwrap();

    let workers = 4usize;
    let progress = Arc::new(AtomicUsize::new(0));
    let total = workers * all_keys().len();
    let threads: Vec<_> = (0..workers)
        .map(|id| {
            let want = Arc::clone(&want);
            let progress = Arc::clone(&progress);
            std::thread::spawn(move || {
                let config = RobustConfig {
                    retry: RetryPolicy { max_attempts: 3, backoff: Duration::from_millis(1) },
                    seed: 0xC0DE ^ id as u64,
                    ..RobustConfig::default()
                };
                let mut client = RobustClient::new_ring(&[seed_addr], config).unwrap();
                let mut order = 0x5EED ^ (id as u64) << 8;
                for key in shuffled(&all_keys(), &mut order) {
                    verify(&mut client, &want, key);
                    progress.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();

    // Reconfigure mid-walk: once a third of the fetches have landed (so
    // the walks are genuinely under way and cannot all be finished),
    // push the epoch-2 map that drops s2 to every member — the leaver
    // included, so it starts answering WrongShard immediately.
    let deadline = Instant::now() + Duration::from_secs(30);
    while progress.load(Ordering::Relaxed) < total / 3 {
        assert!(Instant::now() < deadline, "walks stalled before the push");
        std::thread::sleep(Duration::from_millis(1));
    }
    let map2 = ShardMap::new(2, 42, 128, 2, map.members[..2].to_vec());
    for m in &map.members {
        let (epoch, installed) = Client::connect(&m.addr).unwrap().push_map(&map2).unwrap();
        assert!(installed, "{} must install epoch 2", m.name);
        assert_eq!(epoch, 2);
    }
    for t in threads {
        t.join().unwrap();
    }

    // The install rule on the wire, post-hoc: idempotent, stale, conflict.
    let mut c0 = Client::connect(&map.members[0].addr).unwrap();
    assert_eq!(c0.push_map(&map2).unwrap(), (2, false), "re-push must ack without installing");
    match c0.push_map(&map) {
        Err(ServeError::Server { code: ErrorCode::BadRequest, .. }) => {}
        other => panic!("stale push must be a typed BadRequest, got {other:?}"),
    }
    let conflicting = ShardMap::new(2, 43, 128, 2, map.members[..2].to_vec());
    match c0.push_map(&conflicting) {
        Err(ServeError::Server { code: ErrorCode::BadRequest, .. }) => {}
        other => panic!("same-epoch conflicting push must be rejected, got {other:?}"),
    }
    let s0 = c0.stats().unwrap();
    assert_eq!(s0.shard_epoch, 2);
    assert_eq!(s0.map_pushes, 1);
    assert_eq!(s0.map_push_rejected, 2, "the stale and the conflicting push");

    // The leaver handed off its entire holding and now owns nothing.
    let s2 = Client::connect(&map.members[2].addr).unwrap().stats().unwrap();
    assert_eq!(s2.shard_epoch, 2);
    assert_eq!(s2.shard_owned, 0);
    assert!(s2.handoffs > 0, "the dropped member must hand off its keys: {s2:?}");

    for h in handles {
        h.shutdown_and_join();
    }
    for p in &paths {
        std::fs::remove_file(p).ok();
    }
}

/// Exact drain accounting: park K requests inside the worker pool (a
/// deliberate per-job delay), push a map while they are in flight, and
/// the server must count exactly K drains — and still answer all K at
/// the old epoch, bit-identically.
#[test]
fn map_push_drains_inflight_work_exactly() {
    let paths = packed("drain");
    let want = reference(&paths);
    const K: usize = 3;
    let (map, handles) = start_cluster(&paths, 2, 42, |_, config| {
        config.workers = K;
        config.worker_delay = Some(Duration::from_millis(300));
    });

    // Replication 2 of 2 members: s0 serves every key, so K distinct
    // uncached fetches against it all enter the queue.
    let addr = map.members[0].addr.clone();
    let threads: Vec<_> = (0..K)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                Client::connect(&addr).unwrap().fetch(0, i as u32, 0).unwrap()
            })
        })
        .collect();

    // Wait until all K are admitted and in flight, then push while the
    // workers are still sleeping on them.
    let mut control = Client::connect(&addr).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = control.stats().unwrap();
        let inflight: u64 = stats.tenants.iter().map(|t| t.inflight).sum();
        if inflight as usize == K {
            break;
        }
        assert!(Instant::now() < deadline, "never saw {K} requests in flight: {stats:?}");
        std::thread::sleep(Duration::from_millis(2));
    }
    let map2 = ShardMap::new(2, 42, 128, 2, map.members.clone());
    assert_eq!(control.push_map(&map2).unwrap(), (2, true));

    let stats = control.stats().unwrap();
    assert_eq!(stats.drained, K as u64, "exactly the in-flight requests drain: {stats:?}");
    assert_eq!(stats.map_pushes, 1);
    assert_eq!(stats.handoffs, 0, "same roster, same ring — no key moved");

    // Every parked request is answered, at full fidelity, bit-identical.
    for (i, t) in threads.into_iter().enumerate() {
        let got = t.join().unwrap();
        let bits: Vec<u32> = got.data.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, want[&(0, i as u32, CF as u8)], "drained chunk {i}");
    }

    for h in handles {
        h.shutdown_and_join();
    }
    for p in &paths {
        std::fs::remove_file(p).ok();
    }
}

/// One full churn pass: healthy walk → quiesced epoch-2 push (drop s2)
/// → redirected walk → kill s1 → failover walk → detector sweep →
/// epoch-3 push to the survivor → final walk. Every byte verified
/// throughout; returns every counter the pass produced.
fn churn_pass(paths: &[PathBuf], want: &HashMap<(u32, u32, u8), Vec<u32>>, seed: u64) -> Vec<u64> {
    let (map, mut handles) = start_cluster(paths, 3, 42, |_, _| {});
    let seed_addr: SocketAddr = map.members[0].addr.parse().unwrap();
    let config = RobustConfig {
        retry: RetryPolicy { max_attempts: 2, backoff: Duration::from_millis(1) },
        // One failure opens the breaker and the long cooldown keeps it
        // open for the rest of the pass: no half-open probes, so the
        // counters are a pure function of the seed, not of timing.
        breaker_threshold: 1,
        breaker_cooldown: Duration::from_secs(60),
        seed,
        ..RobustConfig::default()
    };
    let mut client = RobustClient::new_ring(&[seed_addr], config).unwrap();
    let mut order = seed;

    // Round A: all three shards healthy at epoch 1.
    for key in shuffled(&all_keys(), &mut order) {
        verify(&mut client, want, key);
    }
    // Snapshot the 3-shard routed split now — each map install resizes
    // the routed table to the new roster, and the blind-ask prefix of
    // round A (fetches before the first redirect taught the client the
    // map) is the walk-order-sensitive part of the history.
    let routed_a: Vec<u64> = client.routed_counts().iter().map(|&(_, n)| n).collect();

    // Quiesced epoch-2 push dropping s2: nothing is in flight, so no
    // member drains anything — pin that exactness here.
    let map2 = ShardMap::new(2, 42, 128, 2, map.members[..2].to_vec());
    for m in &map.members {
        assert_eq!(Client::connect(&m.addr).unwrap().push_map(&map2).unwrap(), (2, true));
    }
    let drained: u64 = map
        .members
        .iter()
        .map(|m| Client::connect(&m.addr).unwrap().stats().unwrap().drained)
        .sum();
    assert_eq!(drained, 0, "a quiesced push has nothing to drain");

    // Round B: the client still holds the epoch-1 map; keys that moved
    // draw a WrongShard redirect, a refresh, and a re-route.
    for key in shuffled(&all_keys(), &mut order) {
        verify(&mut client, want, key);
    }

    // Kill s1. Epoch 2 replicates everything on both remaining members,
    // so round C completes by failing over from the dead primary.
    handles.remove(1).shutdown_and_join();
    for key in shuffled(&all_keys(), &mut order) {
        verify(&mut client, want, key);
    }

    // The seeded failure detector sees s1 miss two beats and fires one
    // suspicion, exactly once (s0 keeps beating, so it never fires).
    let mut detector = FailureDetector::new(map2.members.len(), 100, 2);
    for round in 0..3u64 {
        for (i, m) in map2.members.iter().enumerate() {
            let ok = Client::connect(&m.addr).and_then(|mut c| c.ping()).is_ok();
            detector.observe(i, ok, round * 100);
        }
    }
    assert_eq!(detector.suspicions(), 1, "the dead shard fires exactly one suspicion");
    assert!(detector.is_suspected(1) && !detector.is_suspected(0));

    // Snapshot the 2-shard split before the next install shrinks it.
    let routed_c: Vec<u64> = client.routed_counts().iter().map(|&(_, n)| n).collect();

    // Epoch bump: push the survivor-only map through the ring client
    // (it lands on a live member and installs locally in one motion),
    // then the final walk routes everything straight to s0.
    let map3 = ShardMap::new(3, 42, 128, 2, map.members[..1].to_vec());
    client.push_map(&map3).unwrap();
    for key in shuffled(&all_keys(), &mut order) {
        verify(&mut client, want, key);
    }

    let c = client.counters();
    let mut out = routed_a;
    out.extend(routed_c);
    out.extend(client.routed_counts().iter().map(|&(_, n)| n));
    out.extend([
        c.redirects.load(Ordering::Relaxed),
        c.map_refreshes.load(Ordering::Relaxed),
        c.failovers.load(Ordering::Relaxed),
        c.breaker_opens.load(Ordering::Relaxed),
        c.retries.load(Ordering::Relaxed),
        c.reconnects.load(Ordering::Relaxed),
        c.map_pushes.load(Ordering::Relaxed),
        detector.suspicions(),
    ]);
    let s0 = Client::connect(&map.members[0].addr).unwrap().stats().unwrap();
    out.extend([s0.shard_epoch, s0.map_pushes, s0.map_push_rejected, s0.drained, s0.handoffs]);
    // s2 left the cluster at epoch 2 but is still running: it handed off
    // its whole holding and bounced the round-B stale asks.
    let s2 = Client::connect(&map.members[2].addr).unwrap().stats().unwrap();
    out.extend([s2.shard_epoch, s2.map_pushes, s2.handoffs, s2.shard_misdirected]);
    for h in handles {
        h.shutdown_and_join();
    }
    out
}

#[test]
fn kill_detect_and_epoch_bump_replay_deterministic_counters() {
    let paths = packed("churn");
    let want = reference(&paths);

    let first = churn_pass(&paths, &want, 0xB0B);
    let second = churn_pass(&paths, &want, 0xB0B);
    assert_eq!(
        first, second,
        "same seed, same churn schedule: every client and server counter must replay exactly"
    );
    let n = first.len();
    // Tail layout: [.., s0: epoch, pushes, rejected, drained, handoffs,
    //                   s2: epoch, pushes, handoffs, misdirected].
    assert_eq!(first[n - 9], 3, "the survivor must end at epoch 3");
    assert_eq!(first[n - 8], 2, "s0 installs epoch 2 and epoch 3");
    assert_eq!(first[n - 4], 2, "the leaver installs epoch 2 and stops there");
    assert!(first[n - 2] > 0, "the leaver must hand off its keys: {first:?}");
    assert!(first[n - 1] > 0, "round-B stale asks must bounce off the leaver: {first:?}");

    let other = churn_pass(&paths, &want, 0xACE);
    assert_ne!(first, other, "distinct seeds should not replay the same routing history");
    for p in &paths {
        std::fs::remove_file(p).ok();
    }
}

/// Hedged reads against one deliberately slow shard: every fetch whose
/// primary is the slow member must fire a hedge after the window, win it
/// on the fast replica, and return bits identical to a direct decode.
/// The counters are a pure function of the ring — no timing slack.
#[test]
fn hedged_reads_win_on_the_fast_replica() {
    let paths = packed("hedge");
    let want = reference(&paths);
    let (map, handles) = start_cluster(&paths, 3, 42, |i, config| {
        if i == 1 {
            config.worker_delay = Some(Duration::from_millis(150));
        }
    });
    let seed_addr: SocketAddr = map.members[0].addr.parse().unwrap();
    let config = RobustConfig {
        retry: RetryPolicy { max_attempts: 3, backoff: Duration::from_millis(1) },
        // 2 s budget, hedge after 2% of it: the 40 ms window elapses long
        // before the slow shard's 150 ms delay, so every slow-primary
        // fetch hedges; the replica answers well inside the budget.
        timeout: Some(Duration::from_secs(2)),
        hedge_fraction: 0.02,
        // Window timeouts must not be blamed on the shard; a breaker trip
        // would reroute and break the exact counts, so make any trip loud.
        breaker_threshold: 100,
        seed: 0xFADE,
        ..RobustConfig::default()
    };
    let mut client = RobustClient::new_ring(&[seed_addr], config).unwrap();
    // Prime the client's map (idempotent push, installs locally) so even
    // the first fetch routes pinned — the expected hedge count is then
    // exactly the number of slow-primary keys in the walk.
    client.push_map(&map).unwrap();

    for key in all_keys() {
        verify(&mut client, &want, key);
    }

    let slow_primary =
        all_keys().iter().filter(|&&(c, chunk, _)| map.owner(c, chunk).unwrap() == 1).count()
            as u64;
    assert!(slow_primary > 0, "ring seed 42 must give the slow shard some primaries");
    let c = client.counters();
    assert_eq!(c.hedges_fired.load(Ordering::Relaxed), slow_primary);
    assert_eq!(c.hedges_won.load(Ordering::Relaxed), slow_primary, "every hedge must win");
    assert_eq!(c.hedges_lost.load(Ordering::Relaxed), 0);
    // Each abandoned primary reply is drained before the slow shard's
    // connection is reused; only the final one is still pending when the
    // client goes away.
    assert_eq!(c.hedges_wasted.load(Ordering::Relaxed), slow_primary - 1);
    assert_eq!(c.breaker_opens.load(Ordering::Relaxed), 0, "hedging must not blame the shard");

    for h in handles {
        h.shutdown_and_join();
    }
    for p in &paths {
        std::fs::remove_file(p).ok();
    }
}

/// Chaos plans that cover the handshake window: with `cover_handshake`
/// the fault schedule starts counting at the `Hello`, so corruption can
/// land inside the handshake itself — the client must fail typed, retry,
/// and still complete a bit-verified walk; and the whole disrupted run
/// must replay exactly under the same seeds.
#[test]
fn handshake_window_faults_are_survivable_and_deterministic() {
    let paths = packed("cover");
    let want = reference(&paths);

    let run = |paths: &[PathBuf]| -> Vec<u64> {
        let server = Server::bind("127.0.0.1:0", paths, ServeConfig::default()).unwrap().spawn();
        let addr = server.addr();
        let plan = WireFaultPlan::standard(0xC0FFEE).with_handshake_cover();
        let config = RobustConfig {
            retry: RetryPolicy { max_attempts: 8, backoff: Duration::from_millis(1) },
            chaos: Some(plan),
            breaker_threshold: 100,
            seed: 0xD00D,
            ..RobustConfig::default()
        };
        let mut client = RobustClient::new(&[addr], config).unwrap();
        let mut order = 0xD00D;
        for key in shuffled(&all_keys(), &mut order) {
            verify(&mut client, &want, key);
        }
        let c = client.counters();
        let out = vec![
            client.wire_counters().disruptions(),
            c.retries.load(Ordering::Relaxed),
            c.reconnects.load(Ordering::Relaxed),
        ];
        drop(client);
        server.shutdown_and_join();
        out
    };

    let first = run(&paths);
    let second = run(&paths);
    assert_eq!(first, second, "covered chaos must replay exactly: {first:?} vs {second:?}");
    assert!(first[0] > 0, "the covered plan must actually disrupt the wire: {first:?}");
    assert!(first[2] > 0, "surviving handshake-window faults requires reconnects: {first:?}");
    for p in &paths {
        std::fs::remove_file(p).ok();
    }
}
