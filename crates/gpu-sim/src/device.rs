//! The simulated device: `Device` implementation over the cost model.

use crate::model::cost_model;
use crate::spec::GpuSpec;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
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
    /// Peak-to-peak relative noise amplitude (e.g. `0.04` = ±2 %).
    pub noise: f64,
    /// Noise seed.
    pub seed: u64,
    /// Probability an execution fails with a transient device fault
    /// (0 disables; models flaky nodes / driver hiccups for chaos tests).
    pub fault_rate: f64,
    /// Seed for the fault draws (independent of the noise seed).
    pub fault_seed: u64,
    /// Per-function attempt counters feeding the fault draws, so a retry
    /// of the same function re-rolls while draws stay independent of the
    /// order other functions are evaluated in — the same
    /// (function, attempt, seed) keying as the harness's `FaultInjector`,
    /// which keeps injected faults journal-resume-safe (clones share the
    /// counters).
    fault_attempts: Arc<Mutex<HashMap<String, u64>>>,
    /// Noise-free predictions by printed function — the key the noise and
    /// fault draws use. The model is pure in (function, spec), so repeats,
    /// retries and re-proposals pay a lookup; seed, noise and fault
    /// settings stay outside it, and clones share it.
    predictions: Arc<Mutex<HashMap<String, f64>>>,
}

impl SimDevice {
    /// Simulated device with ±2 % noise, seed 0, no injected faults.
    pub fn new(spec: GpuSpec) -> SimDevice {
        SimDevice {
            spec,
            noise: 0.04,
            seed: 0,
            fault_rate: 0.0,
            fault_seed: 0,
            fault_attempts: Arc::new(Mutex::new(HashMap::new())),
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

    /// Builder: deterministic transient-fault injection. Each `run` draws
    /// a hash of (function, seed, per-function attempt) against `rate`; a
    /// hit returns `DeviceError::Rejected` with a message classified as
    /// transient by the measurement harness, so retries can succeed.
    pub fn with_faults(mut self, rate: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be a probability");
        self.fault_rate = rate;
        self.fault_seed = seed;
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
        let mut h = DefaultHasher::new();
        printed.hash(&mut h);
        self.seed.hash(&mut h);
        let u = (h.finish() >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
        1.0 + self.noise * (u - 0.5)
    }
}

impl Device for SimDevice {
    fn name(&self) -> &str {
        &self.spec.name
    }

    fn run(&self, func: &PrimFunc, _args: &mut [NDArray]) -> Result<f64, DeviceError> {
        // Printed once: the fault, noise and memo keys are all this string.
        let printed = func.to_string();
        if self.fault_rate > 0.0 {
            let n = {
                let mut attempts = self.fault_attempts.lock().expect("fault counter lock");
                let n = attempts.entry(printed.clone()).or_insert(0);
                let current = *n;
                *n += 1;
                current
            };
            let mut h = DefaultHasher::new();
            printed.hash(&mut h);
            self.fault_seed.hash(&mut h);
            n.hash(&mut h);
            let u = (h.finish() >> 11) as f64 / (1u64 << 53) as f64;
            if u < self.fault_rate {
                return Err(DeviceError::Rejected(format!(
                    "transient device fault injected on `{}` (attempt {n})",
                    func.name
                )));
            }
        }
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
        let a = placeholder([n, n], DType::F32, "A");
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
    fn fault_injection_is_deterministic_and_retryable() {
        let f = small_func(32);
        let mut args = [];
        // Rate 0 (default): never fails.
        let clean = SimDevice::new(GpuSpec::a100());
        for _ in 0..20 {
            assert!(clean.run(&f, &mut args).is_ok());
        }
        // Rate 1: always fails, with a transient-classified message.
        let broken = SimDevice::new(GpuSpec::a100()).with_faults(1.0, 7);
        let err = broken.run(&f, &mut args).expect_err("must fail");
        let DeviceError::Rejected(msg) = &err else {
            panic!("expected Rejected, got {err:?}");
        };
        assert!(msg.contains("transient device fault"));
        // Moderate rate: the per-attempt counter re-rolls, so across many
        // executions both outcomes occur, identically for the same seed.
        let mut outcomes = |seed: u64| -> Vec<bool> {
            let dev = SimDevice::new(GpuSpec::a100()).with_faults(0.3, seed);
            (0..40).map(|_| dev.run(&f, &mut args).is_ok()).collect()
        };
        let a = outcomes(1);
        assert_eq!(a, outcomes(1), "same seed reproduces exactly");
        assert!(a.iter().any(|ok| *ok) && a.iter().any(|ok| !*ok));
    }

    #[test]
    fn fault_draws_independent_of_evaluation_order() {
        // Interleaving executions of another function must not perturb a
        // function's own fault sequence (journal-resume safety).
        let f1 = small_func(16);
        let f2 = small_func(24);
        let mut args = [];
        let solo: Vec<bool> = {
            let dev = SimDevice::new(GpuSpec::a100()).with_faults(0.5, 3);
            (0..10).map(|_| dev.run(&f1, &mut args).is_ok()).collect()
        };
        let interleaved: Vec<bool> = {
            let dev = SimDevice::new(GpuSpec::a100()).with_faults(0.5, 3);
            (0..10)
                .map(|_| {
                    let _ = dev.run(&f2, &mut args);
                    dev.run(&f1, &mut args).is_ok()
                })
                .collect()
        };
        assert_eq!(solo, interleaved);
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

    #[test]
    fn fault_attempts_advance_on_memoized_runs() {
        // The fault roll happens before the memo lookup, on every run: the
        // n-th run of a function reports attempt n when it faults, whether
        // or not its prediction was already memoized.
        let f = small_func(32);
        let mut args = [];
        let dev = SimDevice::new(GpuSpec::a100()).with_faults(0.3, 1);
        let mut faults_after_a_success = 0;
        let mut succeeded = false;
        for attempt in 0..40 {
            match dev.run(&f, &mut args) {
                Ok(_) => succeeded = true,
                Err(DeviceError::Rejected(msg)) => {
                    assert!(
                        msg.contains(&format!("(attempt {attempt})")),
                        "run {attempt} reported: {msg}"
                    );
                    faults_after_a_success += succeeded as usize;
                }
                Err(other) => panic!("unexpected error: {other:?}"),
            }
        }
        assert!(faults_after_a_success > 0, "a memoized run must still roll");
    }

    #[test]
    fn args_untouched() {
        let f = small_func(8);
        let dev = SimDevice::new(GpuSpec::a100());
        let a = NDArray::random(&[8, 8], DType::F32, 3, 0.0, 1.0);
        let b = NDArray::zeros(&[8, 8], DType::F32);
        let mut args = [a.clone(), b.clone()];
        let _ = dev.run(&f, &mut args).unwrap();
        assert_eq!(args[0], a);
        assert_eq!(args[1], b, "sim device must not write outputs");
    }
}
