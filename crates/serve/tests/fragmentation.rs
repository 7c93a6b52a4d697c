//! Fragmentation invariance for the sans-I/O [`FrameDecoder`]: a frame
//! stream is the same stream no matter how the transport slices it.
//!
//! TCP owes the protocol nothing about read boundaries — one socket read
//! can surface one byte of a length prefix, a prefix-and-a-half, or forty
//! frames at once. The decoder is the *one*
//! place that reassembles, so this suite feeds identical byte streams
//! through pathological chunkings — 1-byte drip, 7-byte (prime, never
//! aligned with the 4-byte length or 5-byte header), every single split
//! point, and seeded random slices — and demands the identical frame
//! sequence every time, checksummed or not.

use aicomp_serve::proto::{encode_frame, frame_crc, FrameDecoder};
use proptest::prelude::*;

/// Decode an entire byte stream delivered in `chunks`-sized (or
/// caller-sliced) pieces; returns every `(opcode, body)` popped, in order.
fn decode_in_pieces(stream: &[u8], pieces: &[usize], checksum: bool) -> Vec<(u8, Vec<u8>)> {
    let mut dec = FrameDecoder::new();
    let mut frames = Vec::new();
    let mut at = 0;
    for &len in pieces {
        let end = (at + len).min(stream.len());
        dec.push(&stream[at..end]);
        at = end;
        while let Some(f) = dec.pop(checksum).expect("valid stream must decode") {
            frames.push(f);
        }
    }
    assert_eq!(at, stream.len(), "pieces must cover the stream");
    assert!(!dec.has_partial(), "a whole stream leaves no partial frame");
    frames
}

/// Cover `len` bytes with pieces of a fixed size (last one ragged).
fn even_pieces(len: usize, size: usize) -> Vec<usize> {
    let mut pieces = vec![size; len / size];
    if !len.is_multiple_of(size) || len == 0 {
        pieces.push(len % size);
    }
    pieces
}

/// A multi-frame wire stream built from `(opcode, body)` pairs.
fn stream_of(frames: &[(u8, Vec<u8>)], checksum: bool) -> Vec<u8> {
    let mut bytes = Vec::new();
    for (op, body) in frames {
        bytes.extend_from_slice(&encode_frame(*op, body, checksum).expect("encodable"));
    }
    bytes
}

/// Strategy: a short sequence of frames with arbitrary opcodes and bodies
/// (including empty bodies — the length prefix alone must carry them).
fn frames_strategy() -> impl Strategy<Value = Vec<(u8, Vec<u8>)>> {
    prop::collection::vec((any::<u8>(), prop::collection::vec(any::<u8>(), 0..64)), 1..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The reference chunking (whole stream at once) and every degenerate
    /// chunking (1-byte drip, 7-byte ragged) agree frame-for-frame.
    #[test]
    fn drip_feeds_reproduce_whole_stream(
        frames in frames_strategy(),
        checksum in any::<bool>(),
    ) {
        let stream = stream_of(&frames, checksum);
        let whole = decode_in_pieces(&stream, &[stream.len()], checksum);
        prop_assert_eq!(&whole, &frames, "whole-stream decode must echo the input");
        let drip = decode_in_pieces(&stream, &even_pieces(stream.len(), 1), checksum);
        prop_assert_eq!(&drip, &frames);
        let sevens = decode_in_pieces(&stream, &even_pieces(stream.len(), 7), checksum);
        prop_assert_eq!(&sevens, &frames);
    }

    /// Random seeded chunkings — the proptest shrinker hunts for the one
    /// slicing that desynchronises the decoder, if any exists.
    #[test]
    fn random_chunkings_reproduce_whole_stream(
        frames in frames_strategy(),
        checksum in any::<bool>(),
        cuts in prop::collection::vec(1usize..=9, 512),
    ) {
        let stream = stream_of(&frames, checksum);
        let mut pieces = Vec::new();
        let mut covered = 0;
        for c in cuts {
            if covered >= stream.len() {
                break;
            }
            let take = c.min(stream.len() - covered);
            pieces.push(take);
            covered += take;
        }
        let got = decode_in_pieces(&stream, &pieces, checksum);
        prop_assert_eq!(got, frames);
    }

    /// A corrupted CRC is a typed decode error at exactly the frame it
    /// damages — fragmentation must not smear it into a later frame.
    #[test]
    fn crc_damage_is_detected_at_any_split(
        body in prop::collection::vec(any::<u8>(), 1..32),
        flip in any::<u8>(),
    ) {
        let mut stream = encode_frame(7, &body, true).unwrap();
        let last = stream.len() - 1;
        stream[last] ^= flip | 1; // always damages the trailing CRC byte
        let mut dec = FrameDecoder::new();
        for b in &stream {
            dec.push(std::slice::from_ref(b));
        }
        prop_assert!(dec.pop(true).is_err(), "damaged CRC must be a typed error");
    }
}

/// Exhaustive split points: the same two-frame stream cut at *every* byte
/// boundary yields identical frames. (Deterministic, not sampled — the
/// stream is short enough to enumerate.)
#[test]
fn every_single_split_point_is_equivalent() {
    for checksum in [false, true] {
        let frames = vec![(2u8, vec![0xAB; 13]), (5u8, (0..37u8).collect::<Vec<u8>>())];
        let stream = stream_of(&frames, checksum);
        let whole = decode_in_pieces(&stream, &[stream.len()], checksum);
        assert_eq!(whole, frames);
        for split in 0..=stream.len() {
            let got = decode_in_pieces(&stream, &[split, stream.len() - split], checksum);
            assert_eq!(got, frames, "split at byte {split} (checksum={checksum}) diverged");
        }
    }
}

/// The CRC helper itself is stable across body fragmentation — the slab
/// path computes it once over the whole body; a streaming implementation
/// must agree.
#[test]
fn frame_crc_matches_encoded_trailer() {
    let body: Vec<u8> = (0..200u8).collect();
    let frame = encode_frame(9, &body, true).unwrap();
    let trailer = u32::from_le_bytes(frame[frame.len() - 4..].try_into().unwrap());
    assert_eq!(trailer, frame_crc(9, &body));
}
