//! PolyBench 4.2 dataset presets.

use std::fmt;

/// PolyBench problem-size classes. The paper evaluates `Large` and
/// `ExtraLarge`; the smaller classes drive correctness tests and the CPU
//  examples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProblemSize {
    /// Tiny — unit tests.
    Mini,
    /// Small — integration tests.
    Small,
    /// Medium — CPU examples.
    Medium,
    /// PolyBench LARGE (the paper's "large": LU/Cholesky N=2000).
    Large,
    /// PolyBench EXTRALARGE (the paper's "extralarge": N=4000).
    ExtraLarge,
}

impl ProblemSize {
    /// All sizes, ascending.
    pub fn all() -> [ProblemSize; 5] {
        [
            ProblemSize::Mini,
            ProblemSize::Small,
            ProblemSize::Medium,
            ProblemSize::Large,
            ProblemSize::ExtraLarge,
        ]
    }

    /// Parse from the lowercase names used on bench CLIs.
    pub fn parse(s: &str) -> Option<ProblemSize> {
        match s {
            "mini" => Some(ProblemSize::Mini),
            "small" => Some(ProblemSize::Small),
            "medium" => Some(ProblemSize::Medium),
            "large" => Some(ProblemSize::Large),
            "extralarge" | "xl" => Some(ProblemSize::ExtraLarge),
            _ => None,
        }
    }
}

impl fmt::Display for ProblemSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ProblemSize::Mini => "mini",
            ProblemSize::Small => "small",
            ProblemSize::Medium => "medium",
            ProblemSize::Large => "large",
            ProblemSize::ExtraLarge => "extralarge",
        };
        f.write_str(s)
    }
}

/// The kernels this crate implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelName {
    /// Three chained matrix multiplications `G = (A·B)·(C·D)`.
    Mm3,
    /// LU decomposition without pivoting (right-looking).
    Lu,
    /// Cholesky decomposition (right-looking).
    Cholesky,
    /// Single matrix multiplication `C = α·A·B + β·C` (extension).
    Gemm,
    /// Two chained multiplications `D = α·A·B·C + β·D` (extension).
    Mm2,
    /// Symmetric rank-M update `C = α·A·Aᵀ + β·C`, lower triangle
    /// (extension).
    Syrk,
    /// Triangular matrix multiplication `B = α·A·B`, `A` unit lower
    /// triangular (extension).
    Trmm,
}

impl KernelName {
    /// All seven kernels, in declaration order.
    pub fn all() -> [KernelName; 7] {
        [
            KernelName::Mm3,
            KernelName::Lu,
            KernelName::Cholesky,
            KernelName::Gemm,
            KernelName::Mm2,
            KernelName::Syrk,
            KernelName::Trmm,
        ]
    }

    /// The paper's three kernels.
    pub fn paper_kernels() -> [KernelName; 3] {
        [KernelName::Mm3, KernelName::Cholesky, KernelName::Lu]
    }

    /// Parse from the lowercase names used on bench CLIs.
    pub fn parse(s: &str) -> Option<KernelName> {
        match s {
            "3mm" | "mm3" => Some(KernelName::Mm3),
            "lu" => Some(KernelName::Lu),
            "cholesky" => Some(KernelName::Cholesky),
            "gemm" => Some(KernelName::Gemm),
            "2mm" | "mm2" => Some(KernelName::Mm2),
            "syrk" => Some(KernelName::Syrk),
            "trmm" => Some(KernelName::Trmm),
            _ => None,
        }
    }
}

impl fmt::Display for KernelName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            KernelName::Mm3 => "3mm",
            KernelName::Lu => "lu",
            KernelName::Cholesky => "cholesky",
            KernelName::Gemm => "gemm",
            KernelName::Mm2 => "2mm",
            KernelName::Syrk => "syrk",
            KernelName::Trmm => "trmm",
        };
        f.write_str(s)
    }
}

/// Dimensions of `3mm`: `A: N×L, B: L×M, C: M×O, D: O×P` (paper naming).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mm3Dims {
    /// Rows of `A`, `E`, `G`.
    pub n: usize,
    /// Columns of `A` / rows of `B`.
    pub l: usize,
    /// Columns of `B`, rows of `C`; the `G` reduction depth.
    pub m: usize,
    /// Columns of `C` / rows of `D`.
    pub o: usize,
    /// Columns of `D`, `F`, `G`.
    pub p: usize,
}

/// `3mm` dimensions per size class (PolyBench 4.2 table; the paper quotes
/// large = 800/900/1000/1100/1200, extralarge = ×2).
pub fn mm3_dims(size: ProblemSize) -> Mm3Dims {
    match size {
        ProblemSize::Mini => Mm3Dims {
            n: 16,
            l: 18,
            m: 20,
            o: 22,
            p: 24,
        },
        ProblemSize::Small => Mm3Dims {
            n: 40,
            l: 50,
            m: 60,
            o: 70,
            p: 80,
        },
        ProblemSize::Medium => Mm3Dims {
            n: 180,
            l: 190,
            m: 200,
            o: 210,
            p: 220,
        },
        ProblemSize::Large => Mm3Dims {
            n: 800,
            l: 900,
            m: 1000,
            o: 1100,
            p: 1200,
        },
        ProblemSize::ExtraLarge => Mm3Dims {
            n: 1600,
            l: 1800,
            m: 2000,
            o: 2200,
            p: 2400,
        },
    }
}

/// Matrix order `N` for the factorization kernels (LU, Cholesky).
pub fn factorization_n(size: ProblemSize) -> usize {
    match size {
        ProblemSize::Mini => 40,
        ProblemSize::Small => 120,
        ProblemSize::Medium => 400,
        ProblemSize::Large => 2000,
        ProblemSize::ExtraLarge => 4000,
    }
}

/// Dimensions `(NI, NJ, NK)` for `gemm`: `C: NI×NJ, A: NI×NK, B: NK×NJ`.
pub fn gemm_dims(size: ProblemSize) -> (usize, usize, usize) {
    match size {
        ProblemSize::Mini => (20, 25, 30),
        ProblemSize::Small => (60, 70, 80),
        ProblemSize::Medium => (200, 220, 240),
        ProblemSize::Large => (1000, 1100, 1200),
        ProblemSize::ExtraLarge => (2000, 2300, 2600),
    }
}

/// Dimensions `(M, N)` for `syrk`: `C: N×N`, `A: N×M`.
pub fn syrk_dims(size: ProblemSize) -> (usize, usize) {
    match size {
        ProblemSize::Mini => (20, 30),
        ProblemSize::Small => (60, 80),
        ProblemSize::Medium => (200, 240),
        ProblemSize::Large => (1000, 1200),
        ProblemSize::ExtraLarge => (2000, 2600),
    }
}

/// Dimensions `(M, N)` for `trmm`: `A: M×M` (unit lower triangular),
/// `B: M×N`.
pub fn trmm_dims(size: ProblemSize) -> (usize, usize) {
    match size {
        ProblemSize::Mini => (20, 30),
        ProblemSize::Small => (60, 80),
        ProblemSize::Medium => (200, 240),
        ProblemSize::Large => (1000, 1200),
        ProblemSize::ExtraLarge => (2000, 2600),
    }
}

/// Dimensions `(NI, NJ, NK, NL)` for `2mm`.
pub fn mm2_dims(size: ProblemSize) -> (usize, usize, usize, usize) {
    match size {
        ProblemSize::Mini => (16, 18, 22, 24),
        ProblemSize::Small => (40, 50, 70, 80),
        ProblemSize::Medium => (180, 190, 210, 220),
        ProblemSize::Large => (800, 900, 1100, 1200),
        ProblemSize::ExtraLarge => (1600, 1800, 2200, 2400),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sizes() {
        assert_eq!(factorization_n(ProblemSize::Large), 2000);
        assert_eq!(factorization_n(ProblemSize::ExtraLarge), 4000);
        let d = mm3_dims(ProblemSize::ExtraLarge);
        assert_eq!((d.n, d.l, d.m, d.o, d.p), (1600, 1800, 2000, 2200, 2400));
        let d = mm3_dims(ProblemSize::Large);
        assert_eq!((d.n, d.l, d.m, d.o, d.p), (800, 900, 1000, 1100, 1200));
    }

    #[test]
    fn parse_roundtrip() {
        for s in ProblemSize::all() {
            assert_eq!(ProblemSize::parse(&s.to_string()), Some(s));
        }
        for k in KernelName::all() {
            assert_eq!(KernelName::parse(&k.to_string()), Some(k));
        }
        assert_eq!(ProblemSize::parse("xl"), Some(ProblemSize::ExtraLarge));
        assert_eq!(ProblemSize::parse("nope"), None);
    }

    #[test]
    fn sizes_are_monotone() {
        let ns: Vec<usize> = ProblemSize::all()
            .iter()
            .map(|&s| factorization_n(s))
            .collect();
        assert!(ns.windows(2).all(|w| w[0] < w[1]));
    }
}
