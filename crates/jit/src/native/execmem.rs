//! Executable-memory arena for the native backend.
//!
//! The container images this repository targets have no `libc` crate and
//! no allocator that hands out executable pages, so the arena talks to the
//! kernel directly: `mmap(PROT_READ|PROT_WRITE)` via a raw `syscall`
//! instruction, a byte copy of the emitted code, then
//! `mprotect(PROT_READ|PROT_EXEC)` — W^X end to end, pages are never
//! writable and executable at the same time. `Drop` unmaps.
//!
//! Everything here is `cfg`-gated to x86-64 Linux alongside the emitter;
//! other targets never reach this module (the engine aliases every
//! compiled mode to bytecode there).

use std::arch::asm;

const SYS_MMAP: i64 = 9;
const SYS_MPROTECT: i64 = 10;
const SYS_MUNMAP: i64 = 11;

const PROT_READ: i64 = 1;
const PROT_WRITE: i64 = 2;
const PROT_EXEC: i64 = 4;
const MAP_PRIVATE: i64 = 0x02;
const MAP_ANONYMOUS: i64 = 0x20;

const PAGE: usize = 4096;

/// `syscall` with up to six arguments, returning the raw kernel result
/// (negative errno on failure).
///
/// # Safety
/// The caller is responsible for passing arguments that are valid for the
/// requested syscall number.
unsafe fn syscall6(nr: i64, a0: i64, a1: i64, a2: i64, a3: i64, a4: i64, a5: i64) -> i64 {
    let ret: i64;
    unsafe {
        asm!(
            "syscall",
            inlateout("rax") nr => ret,
            in("rdi") a0,
            in("rsi") a1,
            in("rdx") a2,
            in("r10") a3,
            in("r8") a4,
            in("r9") a5,
            // The syscall instruction clobbers rcx (return RIP) and r11
            // (saved RFLAGS).
            out("rcx") _,
            out("r11") _,
            options(nostack),
        );
    }
    ret
}

/// A page-aligned, read+execute mapping holding one function's machine
/// code. Immutable after construction — safe to share across worker
/// threads.
pub struct ExecMem {
    ptr: *mut u8,
    len: usize,
}

// The mapping is never written after `mprotect(R|X)` and never aliased
// mutably; concurrent execution from many threads is exactly its purpose.
unsafe impl Send for ExecMem {}
unsafe impl Sync for ExecMem {}

impl ExecMem {
    /// Map `code` into fresh executable pages.
    pub fn map(code: &[u8]) -> Result<ExecMem, String> {
        aqe_fault::failpoint("wx_map")?;
        if code.is_empty() {
            return Err("empty code buffer".to_string());
        }
        let len = code.len().div_ceil(PAGE) * PAGE;
        let addr = unsafe {
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
        if addr < 0 {
            return Err(format!("mmap failed: errno {}", -addr));
        }
        let ptr = addr as *mut u8;
        unsafe {
            std::ptr::copy_nonoverlapping(code.as_ptr(), ptr, code.len());
        }
        let r = unsafe { syscall6(SYS_MPROTECT, addr, len as i64, PROT_READ | PROT_EXEC, 0, 0, 0) };
        if r < 0 {
            unsafe { syscall6(SYS_MUNMAP, addr, len as i64, 0, 0, 0, 0) };
            return Err(format!("mprotect failed: errno {}", -r));
        }
        Ok(ExecMem { ptr, len })
    }

    /// Entry point of the mapped code.
    pub fn as_ptr(&self) -> *const u8 {
        self.ptr
    }
}

impl Drop for ExecMem {
    fn drop(&mut self) {
        unsafe {
            syscall6(SYS_MUNMAP, self.ptr as i64, self.len as i64, 0, 0, 0, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_and_executes_a_trivial_function() {
        // mov eax, 42; ret
        let code = [0xb8, 42, 0, 0, 0, 0xc3];
        let m = ExecMem::map(&code).expect("map");
        let f: extern "C" fn() -> i32 = unsafe { std::mem::transmute(m.as_ptr()) };
        assert_eq!(f(), 42);
    }

    #[test]
    fn empty_code_is_rejected() {
        assert!(ExecMem::map(&[]).is_err());
    }

    #[test]
    fn mapping_survives_beyond_the_source_buffer() {
        let f = {
            // mov eax, edi; add eax, edi; ret  (doubles its argument)
            let code = vec![0x89, 0xf8, 0x01, 0xf8, 0xc3];
            let m = ExecMem::map(&code).expect("map");
            drop(code);
            m
        };
        let g: extern "C" fn(i32) -> i32 = unsafe { std::mem::transmute(f.as_ptr()) };
        assert_eq!(g(21), 42);
    }
}
