//! Seeded inputs and the containers packed from them.

use std::io::Cursor;

use aicomp_sciml::data::{Dataset, DatasetKind};
use aicomp_store::{DczReader, DczWriter, SplitMix64, StoreOptions};
use aicomp_tensor::Tensor;

/// `count` smooth `[channels, n, n]` fields: a few low-frequency plane
/// waves per channel plus faint noise, the structure of real imagery
/// rather than uniform noise (which no transform coder compresses).
pub fn smooth_fields(seed: u64, count: usize, channels: usize, n: usize) -> Vec<Tensor> {
    const WAVES: usize = 6;
    let mut rng = SplitMix64(seed);
    let tau = std::f64::consts::TAU;
    (0..count)
        .map(|_| {
            let mut data = vec![0f32; channels * n * n];
            for plane in data.chunks_exact_mut(n * n) {
                for _ in 0..WAVES {
                    let fx = (rng.uniform() - 0.5) * 12.0;
                    let fy = (rng.uniform() - 0.5) * 12.0;
                    let phase = rng.uniform() * tau;
                    let amp = (0.3 + 0.7 * rng.uniform()) / WAVES as f64;
                    // sin(a + b) = sin a·cos b + cos a·sin b: two tables per
                    // wave instead of one sine per pixel.
                    let ax: Vec<(f64, f64)> = (0..n)
                        .map(|x| (tau * fx * x as f64 / n as f64 + phase).sin_cos())
                        .collect();
                    let by: Vec<(f64, f64)> =
                        (0..n).map(|y| (tau * fy * y as f64 / n as f64).sin_cos()).collect();
                    for (y, row) in plane.chunks_exact_mut(n).enumerate() {
                        let (sb, cb) = by[y];
                        for (v, &(sa, ca)) in row.iter_mut().zip(&ax) {
                            *v += (amp * (sa * cb + ca * sb)) as f32;
                        }
                    }
                }
                for v in plane.iter_mut() {
                    *v += ((rng.uniform() - 0.5) * 0.02) as f32;
                }
            }
            Tensor::from_vec(data, [channels, n, n]).expect("field shape")
        })
        .collect()
}

/// `count` `slstr_cloud` tiles (`[3, 64, 64]`: smooth radiance plus
/// cloud blobs), split into samples.
pub fn cloud_tiles(seed: u64, count: usize) -> Vec<Tensor> {
    let ds = Dataset::generate(DatasetKind::SlstrCloud, count, seed);
    let [c, h, w] = DatasetKind::SlstrCloud.sample_shape();
    (0..count).map(|i| ds.input_batch(i, i + 1).reshaped([c, h, w]).expect("tile shape")).collect()
}

/// A container packed in memory, with the samples it was packed from.
#[derive(Debug)]
pub struct Packed {
    /// Container bytes.
    pub bytes: Vec<u8>,
    /// Samples, in pack order.
    pub samples: Vec<Tensor>,
    /// Packing options.
    pub opts: StoreOptions,
}

impl Packed {
    /// Pack `samples` with `opts` into an in-memory sink.
    pub fn new(samples: Vec<Tensor>, opts: StoreOptions) -> Result<Packed, String> {
        let (sink, _) = DczWriter::pack(Cursor::new(Vec::new()), &opts, samples.iter().cloned())
            .map_err(|e| format!("pack: {e}"))?;
        Ok(Packed { bytes: sink.into_inner(), samples, opts })
    }

    /// Reader over the container bytes.
    pub fn reader(&self) -> Result<DczReader<Cursor<&[u8]>>, String> {
        DczReader::new(Cursor::new(self.bytes.as_slice())).map_err(|e| format!("open: {e}"))
    }

    /// Raw sample bytes over container bytes.
    pub fn stored_ratio(&self) -> f64 {
        self.raw_bytes() as f64 / self.bytes.len() as f64
    }

    /// Bytes of the raw `f32` samples.
    pub fn raw_bytes(&self) -> usize {
        self.samples.iter().map(|s| s.data().len() * 4).sum()
    }

    /// Mean raw MB per chunk and mean stored MB per chunk (the bytes a
    /// CRC covers).
    pub fn chunk_mb(&self) -> Result<(f64, f64), String> {
        let r = self.reader()?;
        let chunks = r.chunk_count().max(1) as f64;
        let payload: u64 = r.index().iter().map(|e| e.len as u64).sum();
        Ok((self.raw_bytes() as f64 / chunks / 1e6, payload as f64 / chunks / 1e6))
    }

    /// The raw samples of chunk `chunk`, flattened in sample order.
    pub fn chunk_raw(&self, chunk: usize) -> Vec<f32> {
        let cs = self.opts.chunk_size;
        let end = ((chunk + 1) * cs).min(self.samples.len());
        self.samples[chunk * cs..end].iter().flat_map(|s| s.data().iter().copied()).collect()
    }

    /// Chunk `chunk`'s raw samples as one `[S, C, n, n]` batch — the shape
    /// the writer compresses.
    pub fn chunk_batch(&self, chunk: usize) -> Tensor {
        let cs = self.opts.chunk_size;
        let end = ((chunk + 1) * cs).min(self.samples.len());
        let parts: Vec<&Tensor> = self.samples[chunk * cs..end].iter().collect();
        let d = parts[0].dims().to_vec();
        Tensor::concat0(&parts)
            .and_then(|t| t.reshaped([parts.len(), d[0], d[1], d[2]]))
            .expect("chunk batch")
    }
}

/// Bitwise equality of two `f32` slices (`to_bits`, so ±0 and NaN count).
pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_replay_from_the_seed() {
        let a = smooth_fields(5, 2, 3, 32);
        let b = smooth_fields(5, 2, 3, 32);
        let c = smooth_fields(6, 2, 3, 32);
        assert!(same_bits(a[1].data(), b[1].data()));
        assert!(!same_bits(a[1].data(), c[1].data()));
        assert!(same_bits(cloud_tiles(2, 3)[2].data(), cloud_tiles(2, 3)[2].data()));
    }

    #[test]
    fn smooth_fields_compress_well() {
        let p = Packed::new(smooth_fields(1, 4, 3, 64), StoreOptions::dct(64, 4, 3, 2)).unwrap();
        assert!(p.stored_ratio() > 4.0, "{}", p.stored_ratio());
        let mut r = p.reader().unwrap();
        assert_eq!(r.verify().unwrap().chunks, 2);
        assert_eq!(p.chunk_raw(1).len(), 2 * 3 * 64 * 64);
        assert_eq!(p.chunk_batch(1).dims(), &[2, 3, 64, 64]);
    }
}
