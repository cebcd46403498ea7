//! The simulated device: `Device` implementation over the cost model.

use crate::model::cost_model;
use crate::spec::GpuSpec;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use tvm_runtime::{Device, DeviceError, NDArray};
use tvm_tir::PrimFunc;

/// A deterministic simulated GPU.
///
/// `run` returns the modeled runtime without touching the argument arrays
/// (correctness is validated separately on `CpuDevice` at small sizes —
/// the split the paper also has between on-device timing and host-side
/// verification). A configuration-keyed hash injects bounded multiplicative
/// noise so tuning traces resemble measured data while remaining exactly
/// reproducible.
#[derive(Debug, Clone)]
pub struct SimDevice {
    /// Hardware description. Private and without a setter: the prediction
    /// memo below is shared by clones, so every holder of one memo must
    /// model the same hardware.
    spec: GpuSpec,
    /// Peak-to-peak relative noise amplitude (e.g. `0.04` = ±2 %), in
    /// `[0, 1)` so that a runtime stays positive.
    noise: f64,
    /// Noise seed.
    seed: u64,
    /// Noise-free predictions by printed function — the key the noise
    /// draw uses. The model is pure in (function, spec), so repeats,
    /// retries and re-proposals pay a lookup; seed and noise stay outside
    /// it, and clones share it.
    predictions: Arc<Mutex<HashMap<String, f64>>>,
}

impl SimDevice {
    /// Simulated device with ±2 % noise, seed 0.
    pub fn new(spec: GpuSpec) -> SimDevice {
        SimDevice {
            spec,
            noise: 0.04,
            seed: 0,
            predictions: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// The hardware this device models.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// Builder: noise amplitude (0 disables).
    pub fn with_noise(mut self, amplitude: f64) -> Self {
        assert!((0.0..1.0).contains(&amplitude));
        self.noise = amplitude;
        self
    }

    /// Builder: noise seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Noise-free model prediction for `func`.
    pub fn predict(&self, func: &PrimFunc) -> f64 {
        self.predict_printed(func, &func.to_string())
    }

    /// [`SimDevice::predict`] given `func` already printed: the model is
    /// evaluated once per distinct function.
    fn predict_printed(&self, func: &PrimFunc, printed: &str) -> f64 {
        let memo = || self.predictions.lock().expect("prediction memo lock");
        let known = memo().get(printed).copied();
        known.unwrap_or_else(|| {
            // Computed outside the lock: parallel measurement workers of
            // one evaluator share this device.
            let t = cost_model(func, &self.spec).total();
            memo().insert(printed.to_string(), t);
            t
        })
    }

    fn noise_factor(&self, printed: &str) -> f64 {
        if self.noise == 0.0 {
            return 1.0;
        }
        // Key the noise on the printed function (loop extents capture the
        // configuration) and the seed.
        let h = noise_hash(printed, self.seed);
        let u = (h >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
        1.0 + self.noise * (u - 0.5)
    }
}

/// SipHash-1-3 with both keys zero over `printed`'s bytes, `0xff` and the
/// seed's 8 bytes: what `std`'s `DefaultHasher::new()` makes of `printed`
/// then `seed` today. `std` leaves that algorithm unspecified across
/// releases, and every modeled runtime depends on it.
fn noise_hash(printed: &str, seed: u64) -> u64 {
    fn round(v: &mut [u64; 4]) {
        v[0] = v[0].wrapping_add(v[1]);
        v[1] = v[1].rotate_left(13) ^ v[0];
        v[0] = v[0].rotate_left(32);
        v[2] = v[2].wrapping_add(v[3]);
        v[3] = v[3].rotate_left(16) ^ v[2];
        v[0] = v[0].wrapping_add(v[3]);
        v[3] = v[3].rotate_left(21) ^ v[0];
        v[2] = v[2].wrapping_add(v[1]);
        v[1] = v[1].rotate_left(17) ^ v[2];
        v[2] = v[2].rotate_left(32);
    }
    fn compress(v: &mut [u64; 4], m: u64) {
        v[3] ^= m;
        round(v);
        v[0] ^= m;
    }
    let mut v = [
        0x736f_6d65_7073_6575,
        0x646f_7261_6e64_6f6d,
        0x6c79_6765_6e65_7261,
        0x7465_6462_7974_6573,
    ];
    // Little-endian words: the printed bytes', then those of its last
    // partial word, `0xff` and the seed, zero-padded.
    let words = printed.as_bytes().chunks_exact(8);
    let rest = words.remainder();
    let mut tail = [0u8; 24];
    tail[..rest.len()].copy_from_slice(rest);
    tail[rest.len()] = 0xff;
    tail[rest.len() + 1..][..8].copy_from_slice(&seed.to_le_bytes());
    let full = (rest.len() + 9) / 8;
    let word = |b: &[u8]| u64::from_le_bytes(b[..8].try_into().expect("8 bytes"));
    for w in words.chain(tail.chunks_exact(8).take(full)) {
        compress(&mut v, word(w));
    }
    let len = (printed.len() + 9) as u64;
    compress(&mut v, word(&tail[8 * full..]) | len << 56);
    v[2] ^= 0xff;
    for _ in 0..3 {
        round(&mut v);
    }
    v[0] ^ v[1] ^ v[2] ^ v[3]
}

impl Device for SimDevice {
    fn name(&self) -> &str {
        &self.spec.name
    }

    fn run(&self, func: &PrimFunc, _args: &mut [NDArray]) -> Result<f64, DeviceError> {
        // Printed once: the noise and memo keys are both this string.
        let printed = func.to_string();
        let t = self.predict_printed(func, &printed);
        if !t.is_finite() {
            return Err(DeviceError::Rejected(format!(
                "cost model produced non-finite time for `{}`",
                func.name
            )));
        }
        Ok(t * self.noise_factor(&printed))
    }

    /// Modeled compilation cost: a base `tvm.build` latency plus a term
    /// growing with code size (statements after unrolling).
    fn build_cost(&self, func: &PrimFunc) -> f64 {
        let stores = func.body.store_count() as f64;
        0.8 + 0.002 * stores
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvm_te::{compute, placeholder, DType, Schedule};
    use tvm_tir::lower::lower;

    fn small_func(n: usize) -> PrimFunc {
        let a = placeholder([n, n], DType::F64, "A");
        let b = compute([n, n], "B", |i| a.at(&[i[0].clone(), i[1].clone()]) * 2i64);
        let s = Schedule::create(std::slice::from_ref(&b));
        lower(&s, &[a, b], "scale")
    }

    #[test]
    fn run_is_deterministic_and_noisy() {
        let f = small_func(128);
        let dev = SimDevice::new(GpuSpec::a100()).with_seed(1);
        let mut args = [];
        let t1 = dev.run(&f, &mut args).expect("run");
        let t2 = dev.run(&f, &mut args).expect("run");
        assert_eq!(t1, t2, "same config + seed must reproduce exactly");
        let clean = dev.predict(&f);
        assert!((t1 / clean - 1.0).abs() <= 0.021, "noise bounded by ±2%");
    }

    #[test]
    fn different_seeds_different_noise() {
        let f = small_func(128);
        let a = SimDevice::new(GpuSpec::a100()).with_seed(1);
        let b = SimDevice::new(GpuSpec::a100()).with_seed(2);
        let mut args = [];
        assert_ne!(a.run(&f, &mut args).unwrap(), b.run(&f, &mut args).unwrap());
    }

    #[test]
    fn zero_noise_matches_prediction() {
        let f = small_func(64);
        let dev = SimDevice::new(GpuSpec::a100()).with_noise(0.0);
        let mut args = [];
        assert_eq!(dev.run(&f, &mut args).unwrap(), dev.predict(&f));
    }

    #[test]
    fn build_cost_grows_with_code_size() {
        let f1 = small_func(64);
        let dev = SimDevice::new(GpuSpec::a100());
        let base = dev.build_cost(&f1);
        assert!(base >= 0.8);
    }

    #[test]
    fn memoized_run_equals_a_fresh_devices_first_run() {
        let f = small_func(96);
        let mut args = [];
        let dev = SimDevice::new(GpuSpec::a100()).with_seed(5);
        let first = dev.run(&f, &mut args).expect("run");
        let memoized = dev.run(&f, &mut args).expect("run");
        let fresh = SimDevice::new(GpuSpec::a100())
            .with_seed(5)
            .run(&f, &mut args)
            .expect("run");
        assert_eq!(first.to_bits(), fresh.to_bits());
        assert_eq!(memoized.to_bits(), fresh.to_bits());
        assert_eq!(
            dev.predict(&f).to_bits(),
            cost_model(&f, dev.spec()).total().to_bits(),
            "a memoized prediction is the model's own number"
        );
    }

    #[test]
    fn clones_share_predictions_but_not_noise() {
        let f = small_func(128);
        let mut args = [];
        let dev = SimDevice::new(GpuSpec::a100()).with_seed(1);
        let t1 = dev.run(&f, &mut args).expect("run");
        // The clone is served the prediction `dev` memoized, under its own
        // seed: only the noise draw may differ.
        let reseeded = dev.clone().with_seed(2);
        assert_ne!(t1, reseeded.run(&f, &mut args).expect("run"));
        assert_eq!(dev.predict(&f).to_bits(), reseeded.predict(&f).to_bits());
        let quiet = dev.clone().with_noise(0.0);
        assert_eq!(quiet.run(&f, &mut args).expect("run"), dev.predict(&f));
    }

    #[test]
    fn predictions_never_cross_hardware() {
        // A memo belongs to the devices cloned from one `new(spec)`, and
        // the spec cannot change afterwards: warming one device must not
        // leak its numbers into a device modeling other hardware.
        let f = small_func(128);
        let mut args = [];
        let a100 = SimDevice::new(GpuSpec::a100());
        let core = SimDevice::new(GpuSpec::swing_cpu_core());
        let on_a100 = a100.run(&f, &mut args).expect("run");
        let on_core = core.run(&f, &mut args).expect("run");
        assert_ne!(on_a100, on_core);
        assert_eq!(
            core.predict(&f).to_bits(),
            cost_model(&f, &GpuSpec::swing_cpu_core()).total().to_bits()
        );
        assert_eq!(a100.spec().name, GpuSpec::a100().name);
    }

    /// Against `DefaultHasher` fed the string then the seed, as
    /// `noise_factor` fed it before it had its own SipHash.
    #[test]
    fn the_noise_hash_is_the_default_hasher() {
        use std::hash::{Hash, Hasher};
        // An LCG's high bits: the crate has no RNG of its own.
        let mut state = 2023u64;
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            state >> 11
        };
        let alphabet: Vec<char> = "for (i.outer, 0, 16) {}[]+*é→ \n".chars().collect();
        for _ in 0..1000 {
            let len = next() % 80;
            let s: String = (0..len)
                .map(|_| alphabet[(next() % alphabet.len() as u64) as usize])
                .collect();
            let seed = next() ^ next() << 40;
            let mut h = std::collections::hash_map::DefaultHasher::new();
            (s.as_str(), seed).hash(&mut h);
            assert_eq!(noise_hash(&s, seed), h.finish(), "{s:?}, seed {seed}");
        }
        // Known answers, so that a toolchain whose `DefaultHasher` moves
        // cannot move this one along with it.
        assert_eq!(noise_hash("", 0), 0x8c2c_67c2_7dc5_5de3);
        assert_eq!(noise_hash("gemm", 7), 0x303d_0d31_43a3_d03e);
        let printed = "for (i.outer, 0, 16) { B[i] = A[i]*2 }";
        assert_eq!(noise_hash(printed, 1), 0xf26f_fb46_7c7c_ec74);
    }

    #[test]
    #[should_panic]
    fn noise_outside_the_unit_interval_is_refused() {
        let _ = SimDevice::new(GpuSpec::a100()).with_noise(2.0);
    }

    #[test]
    fn args_untouched() {
        let f = small_func(8);
        let dev = SimDevice::new(GpuSpec::a100());
        let a = NDArray::random(&[8, 8], DType::F64, 3, 0.0, 1.0);
        let b = NDArray::zeros(&[8, 8], DType::F64);
        let mut args = [a.clone(), b.clone()];
        let _ = dev.run(&f, &mut args).unwrap();
        assert_eq!(args[0], a);
        assert_eq!(args[1], b, "sim device must not write outputs");
    }
}
