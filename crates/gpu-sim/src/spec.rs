//! Hardware descriptions for the analytical model.

use serde::{Deserialize, Serialize};

/// Parameters of one simulated GPU.
///
/// Presets: [`GpuSpec::a100`] mirrors the published A100-40GB (SXM)
/// datasheet numbers for the Swing nodes the paper used;
/// [`GpuSpec::swing_cpu_core`] models one of their host CPU cores.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuSpec {
    /// Marketing name, e.g. `"A100-40GB"`.
    pub name: String,
    /// Streaming multiprocessors.
    pub num_sms: usize,
    /// Maximum resident threads per SM.
    pub threads_per_sm: usize,
    /// Maximum threads per block.
    pub max_threads_per_block: usize,
    /// Peak FP64 throughput, FLOP/s.
    pub fp64_flops: f64,
    /// HBM bandwidth, bytes/s.
    pub dram_bw: f64,
    /// L2 bandwidth, bytes/s.
    pub l2_bw: f64,
    /// L2 capacity, bytes.
    pub l2_bytes: usize,
    /// Per-SM fast storage available to one block (shared memory + L1),
    /// bytes. This is the inner reuse level of the cost model.
    pub smem_bytes: usize,
    /// Kernel launch latency, seconds.
    pub launch_overhead_s: f64,
    /// Cost of one grid-wide synchronization (sequential outer-loop
    /// iteration), seconds.
    pub sync_overhead_s: f64,
    /// Per-block scheduling cost, seconds.
    pub block_overhead_s: f64,
    /// Warp width for coalescing (32 on NVIDIA hardware).
    pub warp_size: usize,
}

impl GpuSpec {
    /// NVIDIA A100-40GB (the Swing GPUs).
    pub fn a100() -> GpuSpec {
        GpuSpec {
            name: "A100-40GB".into(),
            num_sms: 108,
            threads_per_sm: 2048,
            max_threads_per_block: 1024,
            fp64_flops: 9.7e12,
            dram_bw: 1.555e12,
            l2_bw: 4.0e12,
            l2_bytes: 40 * 1024 * 1024,
            smem_bytes: 160 * 1024,
            launch_overhead_s: 4e-6,
            sync_overhead_s: 6e-6,
            block_overhead_s: 4e-7,
            warp_size: 32,
        }
    }

    /// One Zen-2 core of the Swing host CPUs (2× AMD EPYC 7742).
    ///
    /// The paper's TE schedules contain no GPU thread bindings and its
    /// measured magnitudes (e.g. LU N=2000 best 1.659 s ≈ 3 GFLOP/s
    /// FP64) match single-core host execution, not an A100. This preset
    /// models that regime: one "SM" with one thread (occupancy is moot),
    /// an L1 (32 KB) inner reuse level, a per-core L2 (512 KB) outer
    /// level, cache-line-granularity access efficiency (8 doubles), and
    /// loop-iteration rather than kernel-launch overheads.
    pub fn swing_cpu_core() -> GpuSpec {
        GpuSpec {
            name: "EPYC7742-core".into(),
            num_sms: 1,
            threads_per_sm: 1,
            max_threads_per_block: 1,
            fp64_flops: 2.5e9,
            dram_bw: 20e9,
            l2_bw: 100e9,
            l2_bytes: 512 * 1024,
            smem_bytes: 32 * 1024,
            launch_overhead_s: 0.0,
            sync_overhead_s: 5e-9,
            block_overhead_s: 5e-9,
            warp_size: 8,
        }
    }

    /// Maximum concurrently resident threads on the whole device.
    pub fn device_threads(&self) -> usize {
        self.num_sms * self.threads_per_sm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_preset_sane() {
        let s = GpuSpec::a100();
        assert_eq!(s.num_sms, 108);
        assert!(s.l2_bw > s.dram_bw);
        assert_eq!(s.device_threads(), 108 * 2048);
    }

    #[test]
    fn serde_roundtrip() {
        let s = GpuSpec::a100();
        let j = serde_json::to_string(&s).expect("ser");
        let back: GpuSpec = serde_json::from_str(&j).expect("de");
        assert_eq!(s, back);
    }
}
