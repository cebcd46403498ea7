//! Compiled-module façade over a lowered function.

use crate::device::{CpuDevice, Device, DeviceError};
use crate::interp::ExecError;
use crate::ndarray::NDArray;
use tvm_te::DType;
use tvm_tir::PrimFunc;

/// A "compiled" kernel: a verified [`PrimFunc`] plus convenience entry
/// points — the moral equivalent of the module object `tvm.build` returns.
#[derive(Debug, Clone)]
pub struct Module {
    func: PrimFunc,
}

impl Module {
    /// Wrap a lowered function.
    pub fn new(func: PrimFunc) -> Module {
        Module { func }
    }

    /// Kernel name.
    pub fn name(&self) -> &str {
        &self.func.name
    }

    /// The underlying function.
    pub fn func(&self) -> &PrimFunc {
        &self.func
    }

    /// Parameter signature as `(name, shape, dtype)` triples.
    pub fn signature(&self) -> Vec<(String, Vec<usize>, DType)> {
        self.func
            .params
            .iter()
            .map(|b| (b.name.clone(), b.shape.clone(), b.dtype))
            .collect()
    }

    /// Allocate zeroed arguments matching the signature — handy in tests
    /// and examples.
    pub fn alloc_args(&self) -> Vec<NDArray> {
        self.func
            .params
            .iter()
            .map(|b| NDArray::zeros(&b.shape, b.dtype))
            .collect()
    }

    /// Execute on the host CPU (compiled VM, interpreter fallback); output
    /// parameters are updated in place.
    pub fn run(&self, args: &mut [NDArray]) -> Result<(), ExecError> {
        crate::vm::run(&self.func, args)
    }

    /// Time `repeats` runs on `device`, returning the minimum seconds.
    pub fn time_on(
        &self,
        device: &dyn Device,
        args: &mut [NDArray],
        repeats: usize,
    ) -> Result<f64, DeviceError> {
        device.time(&self.func, args, repeats)
    }

    /// Time on the host CPU.
    pub fn time(&self, args: &mut [NDArray], repeats: usize) -> Result<f64, DeviceError> {
        self.time_on(&CpuDevice::new(), args, repeats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvm_te::{compute, placeholder, Schedule};
    use tvm_tir::lower::lower;

    fn square_module(n: usize) -> Module {
        let a = placeholder([n], DType::F32, "A");
        let b = compute([n], "B", |i| a.at(&[i[0].clone()]) * a.at(&[i[0].clone()]));
        let s = Schedule::create(std::slice::from_ref(&b));
        Module::new(lower(&s, &[a, b], "square"))
    }

    #[test]
    fn signature_and_alloc() {
        let m = square_module(8);
        let sig = m.signature();
        assert_eq!(sig.len(), 2);
        assert_eq!(sig[0].0, "A");
        assert_eq!(sig[1].1, vec![8]);
        let args = m.alloc_args();
        assert_eq!(args.len(), 2);
        assert_eq!(args[0].numel(), 8);
        assert_eq!(m.name(), "square");
    }

    #[test]
    fn run_and_time() {
        let m = square_module(4);
        let mut args = m.alloc_args();
        args[0] = NDArray::from_f32(&[4], &[1.0, 2.0, 3.0, 4.0]);
        m.run(&mut args).expect("run");
        assert_eq!(args[1].to_f64_vec(), vec![1.0, 4.0, 9.0, 16.0]);
        let t = m.time(&mut args, 2).expect("time");
        assert!(t >= 0.0);
    }
}
