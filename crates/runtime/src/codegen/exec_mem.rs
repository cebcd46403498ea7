//! W^X executable code buffer.
//!
//! Lifecycle: an anonymous private mapping is created writable, the
//! emitted machine code is copied in, and the pages are flipped to
//! read+execute before any entry point escapes — the mapping is never
//! writable and executable at the same time. The mapping is unmapped on
//! drop, after the owning [`super::JitProgram`] (and thus every
//! `CompiledFunc` holding entry pointers into it) is gone.
//!
//! Implemented with raw syscalls (`mmap`/`mprotect`/`munmap`) so the
//! crate keeps its zero-external-dependency runtime: this module is only
//! compiled on `x86_64-linux`, where the syscall ABI is stable.

use crate::compile::CompileError;

const PROT_READ: i64 = 1;
const PROT_WRITE: i64 = 2;
const PROT_EXEC: i64 = 4;
const MAP_PRIVATE: i64 = 0x02;
const MAP_ANONYMOUS: i64 = 0x20;
const SYS_MMAP: i64 = 9;
const SYS_MPROTECT: i64 = 10;
const SYS_MUNMAP: i64 = 11;
const PAGE: usize = 4096;

/// Raw x86-64 Linux syscall (returns negative errno on failure).
unsafe fn syscall6(n: i64, a: i64, b: i64, c: i64, d: i64, e: i64, f: i64) -> i64 {
    let ret: i64;
    core::arch::asm!(
        "syscall",
        inlateout("rax") n => ret,
        in("rdi") a,
        in("rsi") b,
        in("rdx") c,
        in("r10") d,
        in("r8") e,
        in("r9") f,
        lateout("rcx") _,
        lateout("r11") _,
        options(nostack),
    );
    ret
}

/// An immutable, executable code region.
#[derive(Debug)]
pub struct ExecBuf {
    ptr: *mut u8,
    len: usize,
}

// The region is read+execute only after construction; sharing raw
// pointers into it across threads is safe.
unsafe impl Send for ExecBuf {}
unsafe impl Sync for ExecBuf {}

impl ExecBuf {
    /// Map `code` into fresh executable pages (write, then seal to RX).
    pub fn from_code(code: &[u8]) -> Result<ExecBuf, CompileError> {
        if code.is_empty() {
            return Err(CompileError("empty code buffer".into()));
        }
        let len = code.len().div_ceil(PAGE) * PAGE;
        let ptr = unsafe {
            syscall6(
                SYS_MMAP,
                0,
                len as i64,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        if ptr < 0 {
            return Err(CompileError(format!("mmap failed (errno {})", -ptr)));
        }
        let ptr = ptr as *mut u8;
        unsafe {
            std::ptr::copy_nonoverlapping(code.as_ptr(), ptr, code.len());
        }
        let rc = unsafe {
            syscall6(
                SYS_MPROTECT,
                ptr as i64,
                len as i64,
                PROT_READ | PROT_EXEC,
                0,
                0,
                0,
            )
        };
        if rc < 0 {
            unsafe { syscall6(SYS_MUNMAP, ptr as i64, len as i64, 0, 0, 0, 0) };
            return Err(CompileError(format!("mprotect failed (errno {})", -rc)));
        }
        Ok(ExecBuf { ptr, len })
    }

    /// Address of byte `off` inside the region.
    pub fn entry(&self, off: usize) -> *const u8 {
        debug_assert!(off < self.len);
        unsafe { self.ptr.add(off) }
    }
}

impl Drop for ExecBuf {
    fn drop(&mut self) {
        unsafe { syscall6(SYS_MUNMAP, self.ptr as i64, self.len as i64, 0, 0, 0, 0) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn executes_emitted_code() {
        // mov rax, 42; ret
        let code = [0x48, 0xC7, 0xC0, 0x2A, 0x00, 0x00, 0x00, 0xC3];
        let buf = ExecBuf::from_code(&code).expect("map");
        let f: extern "sysv64" fn() -> i64 = unsafe { std::mem::transmute(buf.entry(0)) };
        assert_eq!(f(), 42);
    }

    #[test]
    fn empty_code_is_rejected() {
        assert!(ExecBuf::from_code(&[]).is_err());
    }
}
