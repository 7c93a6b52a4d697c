//! Network-level chaos for the serving layer: every fault the seeded
//! [`FaultyStream`] injector can produce — resets, bit flips, stalls,
//! partial writes — plus the server-side discipline (handshake deadline,
//! frame deadline, frame integrity, per-request deadlines, connection
//! limit) must end in one of exactly two outcomes: the bits a direct
//! [`DczReader`] decode produces, or a *typed* error. Never a hang, never
//! a silently wrong chunk.
//!
//! Fault decisions are pure functions of a seed and byte positions, so the
//! recovery counters (retries, reconnects, breaker opens, disruptions) are
//! asserted to be identical across two runs with the same seed — the
//! serving analogue of the store's deterministic `FaultPlan` replay.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::Duration;

use aicomp::serve::protocol::{read_response, write_request};
use aicomp::serve::{
    Client, ErrorCode, Request, Response, RobustClient, RobustConfig, ServeConfig, ServeError,
    Server, WireFaultPlan, MAX_FRAME,
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

fn sample(i: usize) -> Tensor {
    Tensor::from_vec(
        (0..CHANNELS * N * N).map(|k| ((k * 19 + i * 31) % 59) as f32 / 6.0 - 4.0).collect(),
        [CHANNELS, N, N],
    )
    .unwrap()
}

fn packed(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("aicomp_chaos_{tag}_{}.dcz", std::process::id()));
    let opts = StoreOptions::dct(N, CF, CHANNELS, CHUNK);
    pack_file(&path, &opts, (0..SAMPLES).map(sample)).unwrap();
    path
}

/// Direct (server-free) decodes of every chunk at both fidelities.
fn reference(path: &PathBuf) -> HashMap<(u32, u8), Vec<u32>> {
    let mut reader = DczReader::open(path).unwrap();
    let mut map = HashMap::new();
    for chunk in 0..reader.chunk_count() {
        for cf in [CF as u8, COARSE] {
            let t = reader.decompress_chunk_at(chunk, cf as usize).unwrap();
            map.insert(
                (chunk as u32, cf),
                t.data().iter().map(|v: &f32| v.to_bits()).collect::<Vec<u32>>(),
            );
        }
    }
    map
}

const CHUNKS: u32 = SAMPLES.div_ceil(CHUNK) as u32;

/// One full chaos pass: fresh server, one [`RobustClient`] whose wire is
/// fault-injected with `seed`, every chunk at both fidelities three times,
/// every byte verified. Returns the recovery counters.
fn chaos_pass(path: &PathBuf, want: &HashMap<(u32, u8), Vec<u32>>, seed: u64) -> [u64; 6] {
    let handle = Server::bind("127.0.0.1:0", &[path], ServeConfig::default()).unwrap().spawn();
    let addr = handle.addr();
    let config = RobustConfig {
        retry: RetryPolicy { max_attempts: 8, backoff: Duration::from_micros(200) },
        timeout: Some(Duration::from_secs(10)),
        breaker_threshold: 2,
        breaker_cooldown: Duration::from_millis(10),
        seed,
        chaos: Some(WireFaultPlan::standard(seed)),
        ..RobustConfig::default()
    };
    let mut client = RobustClient::new(&[addr], config).unwrap();
    for pass in 0..3 {
        for chunk in 0..CHUNKS {
            for req_cf in [0u8, COARSE] {
                let got = client.fetch(0, chunk, req_cf).unwrap();
                let eff = if req_cf == 0 { CF as u8 } else { req_cf };
                let bits: Vec<u32> = got.data.iter().map(|v| v.to_bits()).collect();
                assert_eq!(
                    bits,
                    want[&(chunk, eff)],
                    "pass {pass} chunk {chunk} cf {eff}: chaos changed delivered bits"
                );
            }
        }
    }
    let c = client.counters();
    let out = [
        c.attempts.load(Ordering::Relaxed),
        c.retries.load(Ordering::Relaxed),
        c.reconnects.load(Ordering::Relaxed),
        c.breaker_opens.load(Ordering::Relaxed),
        c.failovers.load(Ordering::Relaxed),
        client.wire_counters().disruptions(),
    ];
    Client::connect(addr).unwrap().shutdown().unwrap();
    handle.join();
    out
}

#[test]
fn faulty_wire_delivers_bit_identical_chunks_with_deterministic_counters() {
    let path = packed("wire");
    let want = reference(&path);

    let first = chaos_pass(&path, &want, 0xC0FFEE);
    let second = chaos_pass(&path, &want, 0xC0FFEE);
    assert_eq!(
        first, second,
        "same seed, same store: [attempts, retries, reconnects, breaker_opens, \
         failovers, disruptions] must replay exactly"
    );
    assert!(first[5] > 0, "the standard plan must actually disrupt this much traffic: {first:?}");
    assert!(first[1] > 0, "disrupted traffic must force retries: {first:?}");

    // A different seed is a genuinely different fault schedule.
    let other = chaos_pass(&path, &want, 0xB0BACAFE);
    assert_ne!(first, other, "distinct seeds should not replay the same fault schedule");
    std::fs::remove_file(&path).ok();
}

#[test]
fn expired_deadlines_are_shed_before_decode_and_the_connection_survives() {
    let path = packed("deadline");
    let want = reference(&path);
    // One slow worker (25 ms per pass) and no cache: a 1 ms deadline is
    // always expired by the time the worker picks the job up.
    let config = ServeConfig {
        workers: 1,
        cache_entries: 0,
        worker_delay: Some(Duration::from_millis(25)),
        ..ServeConfig::default()
    };
    let handle = Server::bind("127.0.0.1:0", &[&path], config).unwrap().spawn();
    let mut client = Client::connect(handle.addr()).unwrap();

    match client.fetch_deadline(0, 0, 0, Some(Duration::from_millis(1))) {
        Err(ServeError::Server { code: ErrorCode::DeadlineExceeded, .. }) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    // Shedding is typed and non-fatal: the same connection still serves a
    // deadline-free fetch, bit-identically.
    let got = client.fetch(0, 0, 0).unwrap();
    let bits: Vec<u32> = got.data.iter().map(|v| v.to_bits()).collect();
    assert_eq!(bits, want[&(0, CF as u8)]);
    let stats = client.stats().unwrap();
    assert!(stats.deadline_rejected >= 1, "shed must be counted: {stats:?}");

    client.shutdown().unwrap();
    handle.join();
    std::fs::remove_file(&path).ok();
}

#[test]
fn silent_and_slow_loris_connections_are_cut_with_typed_closes() {
    let path = packed("loris");
    let config = ServeConfig {
        handshake_timeout: Duration::from_millis(100),
        frame_deadline: Duration::from_millis(100),
        ..ServeConfig::default()
    };
    let handle = Server::bind("127.0.0.1:0", &[&path], config).unwrap().spawn();
    let addr = handle.addr();

    // A connection that never says Hello is cut at the handshake deadline.
    let mut silent = TcpStream::connect(addr).unwrap();
    match read_response(&mut silent, false).unwrap() {
        Some(Response::Error { code, .. }) => assert_eq!(code, ErrorCode::DeadlineExceeded),
        other => panic!("silent connection: expected typed deadline close, got {other:?}"),
    }
    assert_eq!(silent.read(&mut [0u8; 16]).unwrap(), 0, "server must close after the reply");

    // A slow-loris that starts a frame and stalls is cut at the frame
    // deadline — the unbounded accumulation loop this replaces would have
    // held the buffer forever.
    let mut loris = TcpStream::connect(addr).unwrap();
    write_request(&mut loris, &Request::hello(1), 1).unwrap();
    match read_response(&mut loris, false).unwrap() {
        Some(Response::Hello { version: 1, .. }) => {}
        other => panic!("expected v1 grant, got {other:?}"),
    }
    loris.write_all(&[64, 0, 0, 0, 2]).unwrap(); // 64-byte frame, 1 byte sent
    match read_response(&mut loris, false).unwrap() {
        Some(Response::Error { code, .. }) => assert_eq!(code, ErrorCode::DeadlineExceeded),
        other => panic!("slow loris: expected typed deadline close, got {other:?}"),
    }

    // A malformed frame length is a typed BadFrame close, not a 64 MiB
    // allocation.
    let mut evil = TcpStream::connect(addr).unwrap();
    write_request(&mut evil, &Request::hello(1), 1).unwrap();
    assert!(matches!(
        read_response(&mut evil, false).unwrap(),
        Some(Response::Hello { version: 1, .. })
    ));
    evil.write_all(&(MAX_FRAME + 1).to_le_bytes()).unwrap();
    match read_response(&mut evil, false).unwrap() {
        Some(Response::Error { code, .. }) => assert_eq!(code, ErrorCode::BadFrame),
        other => panic!("oversize frame: expected typed BadFrame close, got {other:?}"),
    }

    let mut control = Client::connect(addr).unwrap();
    let stats = control.stats().unwrap();
    assert!(stats.handshake_timeouts >= 1, "{stats:?}");
    assert!(stats.slow_closed >= 1, "{stats:?}");
    assert!(stats.bad_frames >= 1, "{stats:?}");

    control.shutdown().unwrap();
    handle.join();
    std::fs::remove_file(&path).ok();
}

#[test]
fn v1_clients_interoperate_with_the_v2_server() {
    let path = packed("interop");
    let want = reference(&path);
    let handle = Server::bind("127.0.0.1:0", &[&path], ServeConfig::default()).unwrap().spawn();
    let addr = handle.addr();

    // The server grants the client's version, never upgrades it.
    let mut v1 = Client::connect_version(addr, 1).unwrap();
    assert_eq!(v1.version(), 1);
    let mut v2 = Client::connect(addr).unwrap();
    assert_eq!(v2.version(), 2);

    // Both speak to the same worker pool and get the same bits.
    for chunk in 0..CHUNKS {
        let old = v1.fetch(0, chunk, 0).unwrap();
        let new = v2.fetch(0, chunk, 0).unwrap();
        let old_bits: Vec<u32> = old.data.iter().map(|v| v.to_bits()).collect();
        let new_bits: Vec<u32> = new.data.iter().map(|v| v.to_bits()).collect();
        assert_eq!(old_bits, want[&(chunk, CF as u8)]);
        assert_eq!(new_bits, old_bits);
    }
    // v1 has no deadline field — asking for one is a client-side error,
    // not silent truncation.
    assert!(v1.fetch_deadline(0, 0, 0, Some(Duration::from_secs(1))).is_err());

    v2.shutdown().unwrap();
    handle.join();
    std::fs::remove_file(&path).ok();
}

#[test]
fn connection_limit_rejects_with_typed_overloaded() {
    let path = packed("connlimit");
    let config = ServeConfig { max_conns: 2, ..ServeConfig::default() };
    let handle = Server::bind("127.0.0.1:0", &[&path], config).unwrap().spawn();
    let addr = handle.addr();

    let _a = Client::connect(addr).unwrap();
    let _b = Client::connect(addr).unwrap();
    match Client::connect(addr) {
        Err(ServeError::Server { code, .. }) => assert_eq!(code, ErrorCode::Overloaded),
        other => panic!("third connection: expected typed Overloaded, got {other:?}"),
    }

    // Releasing a slot re-admits new connections.
    drop(_a);
    let mut again = loop {
        // The server reaps finished connection threads on the next accept,
        // so the first post-drop attempt may still see a full house.
        match Client::connect(addr) {
            Ok(c) => break c,
            Err(ServeError::Server { code: ErrorCode::Overloaded, .. }) => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => panic!("reconnect after slot release failed: {e}"),
        }
    };
    let stats = again.stats().unwrap();
    assert!(stats.conns_rejected >= 1, "{stats:?}");
    assert!(stats.conns_accepted >= 3, "{stats:?}");

    again.shutdown().unwrap();
    handle.join();
    std::fs::remove_file(&path).ok();
}
