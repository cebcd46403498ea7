//! Code molds: parameterized kernels that instantiate to lowered TIR.
//!
//! A *code mold* is the paper's term for a kernel template whose tunable
//! statements (`split(y, #P0)` …) are holes filled in with a configuration
//! — step 2 of the proposed framework's iterative phase.
//!
//! There is one mold type, `Mold`: a kernel's table of functions
//! ([`crate::kernels`]: prelint, build, input arrays, reference outputs)
//! with a problem size, a space mode and the tuning space of the three.
//! [`mold_for_mode`] picks the table.

use crate::datasets::{KernelName, ProblemSize};
use crate::kernels::{self, Kernel};
use crate::spaces::{space_for_mode, SpaceMode};
use configspace::{ConfigSpace, Configuration};
use tvm_runtime::NDArray;
use tvm_tir::analyze::Diagnostic;
use tvm_tir::PrimFunc;

/// A tunable kernel: a parameter space plus an instantiation function.
pub trait CodeMold: Send + Sync {
    /// Kernel name (e.g. `"3mm"`).
    fn name(&self) -> &str;

    /// Problem-size class this mold was built for.
    fn size(&self) -> ProblemSize;

    /// Which schedule-space region this mold spans.
    fn mode(&self) -> SpaceMode {
        SpaceMode::Paper
    }

    /// The tuning space (the paper's `cs` object).
    fn space(&self) -> &ConfigSpace;

    /// Pre-lowering legality check on the *declared* schedule facts of
    /// `config` — split factors, fuse adjacency, vectorize widths — run
    /// before [`CodeMold::instantiate`] so that configurations which
    /// would panic during scheduling (zero tiles, non-adjacent fuses)
    /// are denied first. An empty result means "may instantiate"; any
    /// returned diagnostic is a `Deny` with a stable `TIR-*` code.
    ///
    /// Paper-mode spaces contain no illegal schedule, so the default is
    /// unconditionally clean.
    fn prelint(&self, config: &Configuration) -> Vec<Diagnostic> {
        let _ = config;
        Vec::new()
    }

    /// Fill the mold's holes with `config` and lower to TIR.
    ///
    /// # Panics
    /// If `config` does not belong to [`CodeMold::space`], or if it
    /// declares an illegal schedule that [`CodeMold::prelint`] would
    /// have denied (callers must prelint first).
    fn instantiate(&self, config: &Configuration) -> PrimFunc;

    /// Allocate and initialize the argument arrays (inputs followed by
    /// outputs, matching the instantiated function's parameter order).
    fn init_args(&self) -> Vec<NDArray>;

    /// Expected output arrays for [`CodeMold::init_args`], computed by the
    /// reference implementation — same length/order as the function's
    /// parameters, with `None` for pure inputs that the kernel must not
    /// modify beyond its contract.
    fn reference_args(&self) -> Vec<Option<NDArray>>;

    /// The untuned baseline of the paper's §4 listings (`tile = 8`
    /// everywhere, clamped into the space). Aggressive scheduling knobs
    /// stay at their neutral first value, and the illegal tile factor 0
    /// is never selected, so the baseline always instantiates.
    fn baseline_configuration(&self) -> Configuration {
        let space = self.space();
        let names: Vec<String> = space
            .params()
            .iter()
            .map(|p| p.name().to_string())
            .collect();
        let values = space
            .params()
            .iter()
            .map(|p| {
                if crate::spaces::KNOB_NAMES.contains(&p.name()) {
                    return p.value_at(0);
                }
                // Closest value to 8 in the ordinal sequence (skipping
                // the aggressive space's illegal factor 0).
                let mut best = p.value_at(0);
                let mut bd = f64::INFINITY;
                for v in p.values().iter().cloned() {
                    if v.as_int() == Some(0) {
                        continue;
                    }
                    let d = (v.as_int().unwrap_or(0) - 8).abs() as f64;
                    if d < bd {
                        bd = d;
                        best = v;
                    }
                }
                best
            })
            .collect();
        Configuration::new(names, values)
    }
}

/// A kernel's table at a problem size and space mode.
struct Mold {
    kernel: &'static Kernel,
    size: ProblemSize,
    mode: SpaceMode,
    space: ConfigSpace,
}

impl CodeMold for Mold {
    fn name(&self) -> &str {
        self.kernel.name
    }

    fn size(&self) -> ProblemSize {
        self.size
    }

    fn mode(&self) -> SpaceMode {
        self.mode
    }

    fn space(&self) -> &ConfigSpace {
        &self.space
    }

    fn prelint(&self, config: &Configuration) -> Vec<Diagnostic> {
        (self.kernel.prelint)(config)
    }

    fn instantiate(&self, config: &Configuration) -> PrimFunc {
        assert!(
            self.space.validate(config),
            "configuration {config} is not in the {} space",
            self.kernel.name
        );
        (self.kernel.instantiate)(self.size, config)
    }

    fn init_args(&self) -> Vec<NDArray> {
        (self.kernel.init_args)(self.size)
    }

    fn reference_args(&self) -> Vec<Option<NDArray>> {
        (self.kernel.reference_args)(self.size)
    }
}

/// Construct the mold for a kernel at a problem size under a space mode.
pub fn mold_for_mode(kernel: KernelName, size: ProblemSize, mode: SpaceMode) -> Box<dyn CodeMold> {
    let table = match kernel {
        KernelName::Mm3 => &kernels::mm3::KERNEL,
        KernelName::Lu => &kernels::lu::KERNEL,
        KernelName::Cholesky => &kernels::cholesky::KERNEL,
        KernelName::Gemm => &kernels::gemm::KERNEL,
        KernelName::Mm2 => &kernels::mm2::KERNEL,
        KernelName::Syrk => &kernels::syrk::KERNEL,
        KernelName::Trmm => &kernels::trmm::KERNEL,
    };
    let space = space_for_mode(kernel, size, mode);
    Box::new(Mold {
        kernel: table,
        size,
        mode,
        space,
    })
}

/// Construct the paper-space mold for a kernel at a problem size.
pub fn mold_for(kernel: KernelName, size: ProblemSize) -> Box<dyn CodeMold> {
    mold_for_mode(kernel, size, SpaceMode::Paper)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_config_snaps_to_eight() {
        let mold = mold_for(KernelName::Lu, ProblemSize::Large);
        let base = mold.baseline_configuration();
        // divisors of 2000 include 8 exactly.
        assert_eq!(base.ints(), vec![8, 8]);
        assert!(mold.space().validate(&base));
    }

    #[test]
    fn mold_names_match() {
        assert_eq!(mold_for(KernelName::Mm3, ProblemSize::Mini).name(), "3mm");
        assert_eq!(mold_for(KernelName::Lu, ProblemSize::Mini).name(), "lu");
        assert_eq!(
            mold_for(KernelName::Cholesky, ProblemSize::Mini).name(),
            "cholesky"
        );
        assert_eq!(mold_for(KernelName::Gemm, ProblemSize::Mini).name(), "gemm");
        assert_eq!(mold_for(KernelName::Mm2, ProblemSize::Mini).name(), "2mm");
    }

    #[test]
    fn aggressive_baseline_is_legal_and_neutral() {
        for kernel in KernelName::all() {
            let mold = mold_for_mode(kernel, ProblemSize::Mini, SpaceMode::Aggressive);
            assert_eq!(mold.mode(), SpaceMode::Aggressive);
            let base = mold.baseline_configuration();
            assert!(mold.space().validate(&base), "{kernel}");
            assert!(
                mold.prelint(&base).is_empty(),
                "{kernel}: baseline must pass the prelint"
            );
            for knob in crate::spaces::KNOB_NAMES {
                if let Some(v) = base.get(knob) {
                    assert_eq!(v.as_int(), Some(0), "{kernel}: {knob} must stay neutral");
                }
            }
            for p in mold.space().params() {
                if crate::spaces::KNOB_NAMES.contains(&p.name()) {
                    continue;
                }
                assert_ne!(
                    base.int(p.name()),
                    0,
                    "{kernel}: baseline must never pick tile 0"
                );
            }
        }
    }
}
