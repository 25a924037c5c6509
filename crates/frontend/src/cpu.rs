//! The functional (architectural) TDISA simulator.
//!
//! [`Cpu::step`] executes one instruction and returns a [`Retired`] record —
//! the oracle information the out-of-order timing model needs: the correct
//! next PC, the effective address of any memory access, and branch outcomes.

use crate::memory::Memory;
use tdtm_isa::program::{Program, STACK_BASE};
use tdtm_isa::reg::{NUM_FREGS, NUM_IREGS};
use tdtm_isa::{Inst, Op, Reg};
use std::fmt;

/// A memory access performed by a retired instruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MemAccess {
    /// Effective virtual address.
    pub addr: u64,
    /// Access size in bytes (1 or 8).
    pub size: u8,
    /// `true` for stores.
    pub is_store: bool,
}

/// Control-flow outcome of a retired branch or jump.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BranchOutcome {
    /// Whether the branch was taken (always `true` for jumps).
    pub taken: bool,
    /// The target address if taken.
    pub target: u64,
}

/// One architecturally retired instruction, as consumed by the timing model.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Retired {
    /// Dynamic instruction number (0-based).
    pub seq: u64,
    /// This instruction's PC.
    pub pc: u64,
    /// The decoded instruction.
    pub inst: Inst,
    /// The architecturally correct next PC.
    pub next_pc: u64,
    /// Memory access, for loads and stores.
    pub mem: Option<MemAccess>,
    /// Branch outcome, for control instructions.
    pub branch: Option<BranchOutcome>,
}

/// Functional execution errors.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ExecError {
    /// PC left the text segment.
    BadPc(u64),
    /// The instruction budget given to [`Cpu::run_to_halt`] was exhausted
    /// before `halt`.
    BudgetExhausted(u64),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::BadPc(pc) => write!(f, "program counter {pc:#x} outside text segment"),
            ExecError::BudgetExhausted(n) => {
                write!(f, "instruction budget of {n} exhausted before halt")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// The functional TDISA machine: registers, memory, and a PC.
///
/// The program text is held behind an [`Arc`](std::sync::Arc): programs
/// are immutable once assembled, so many machines (grid cells, oracle
/// streams) can share one copy instead of deep-cloning data segments that
/// can run to megabytes.
#[derive(Clone, Debug)]
pub struct Cpu {
    program: std::sync::Arc<Program>,
    pc: u64,
    xregs: [i64; NUM_IREGS],
    fregs: [f64; NUM_FREGS],
    mem: Memory,
    halted: bool,
    retired: u64,
    output: Vec<i64>,
}

impl Cpu {
    /// Creates a CPU with `program` loaded: data segments copied into
    /// memory, the stack pointer initialized, and the PC at the entry
    /// point. Deep-clones the program; prefer
    /// [`from_shared`](Cpu::from_shared) when an `Arc` is already at hand.
    pub fn new(program: &Program) -> Cpu {
        Cpu::from_shared(std::sync::Arc::new(program.clone()))
    }

    /// [`new`](Cpu::new) without the deep program clone: the machine keeps
    /// a reference to the shared, immutable program.
    pub fn from_shared(program: std::sync::Arc<Program>) -> Cpu {
        let mut mem = Memory::new();
        for seg in &program.data {
            mem.load_bytes(seg.base, &seg.bytes);
        }
        let mut xregs = [0i64; NUM_IREGS];
        xregs[Reg::SP.index()] = STACK_BASE as i64;
        Cpu {
            pc: program.entry(),
            program,
            xregs,
            fregs: [0.0; NUM_FREGS],
            mem,
            halted: false,
            retired: 0,
            output: Vec::new(),
        }
    }

    /// Whether the program has executed `halt`.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Number of instructions retired so far.
    pub fn retired_count(&self) -> u64 {
        self.retired
    }

    /// The current PC.
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Values emitted by `out` instructions, in order.
    pub fn output(&self) -> &[i64] {
        &self.output
    }

    /// Read an integer register (for tests and debugging).
    pub fn xreg(&self, r: Reg) -> i64 {
        self.xregs[r.index()]
    }

    /// Read a floating-point register (for tests and debugging).
    pub fn freg(&self, r: tdtm_isa::FReg) -> f64 {
        self.fregs[r.index()]
    }

    /// The memory image (for tests and debugging).
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// Executes one instruction.
    ///
    /// Returns `Ok(None)` if the CPU is already halted.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::BadPc`] if the PC points outside the text
    /// segment.
    #[allow(clippy::too_many_lines)]
    pub fn step(&mut self) -> Result<Option<Retired>, ExecError> {
        if self.halted {
            return Ok(None);
        }
        let pc = self.pc;
        let inst = *self.program.inst_at(pc).ok_or(ExecError::BadPc(pc))?;
        let mut next_pc = pc + 4;
        let mut mem_access = None;
        let mut branch = None;

        let x = |r: Reg| -> i64 { self.xregs[r.index()] };
        macro_rules! setx {
            ($r:expr, $v:expr) => {{
                let r: Reg = $r;
                if !r.is_zero() {
                    self.xregs[r.index()] = $v;
                }
            }};
        }
        macro_rules! setf {
            ($r:expr, $v:expr) => {
                self.fregs[$r.index()] = $v
            };
        }
        let f = |r: tdtm_isa::FReg| -> f64 { self.fregs[r.index()] };

        use Op::*;
        match inst.op {
            Add => setx!(inst.rd, x(inst.rs1).wrapping_add(x(inst.rs2))),
            Sub => setx!(inst.rd, x(inst.rs1).wrapping_sub(x(inst.rs2))),
            Mul => setx!(inst.rd, x(inst.rs1).wrapping_mul(x(inst.rs2))),
            Div => {
                let d = x(inst.rs2);
                setx!(inst.rd, if d == 0 { 0 } else { x(inst.rs1).wrapping_div(d) });
            }
            Rem => {
                let d = x(inst.rs2);
                setx!(inst.rd, if d == 0 { x(inst.rs1) } else { x(inst.rs1).wrapping_rem(d) });
            }
            And => setx!(inst.rd, x(inst.rs1) & x(inst.rs2)),
            Or => setx!(inst.rd, x(inst.rs1) | x(inst.rs2)),
            Xor => setx!(inst.rd, x(inst.rs1) ^ x(inst.rs2)),
            Sll => setx!(inst.rd, x(inst.rs1).wrapping_shl(x(inst.rs2) as u32 & 63)),
            Srl => setx!(inst.rd, ((x(inst.rs1) as u64) >> (x(inst.rs2) as u32 & 63)) as i64),
            Sra => setx!(inst.rd, x(inst.rs1).wrapping_shr(x(inst.rs2) as u32 & 63)),
            Slt => setx!(inst.rd, i64::from(x(inst.rs1) < x(inst.rs2))),
            Sltu => setx!(inst.rd, i64::from((x(inst.rs1) as u64) < (x(inst.rs2) as u64))),
            Addi => setx!(inst.rd, x(inst.rs1).wrapping_add(inst.imm as i64)),
            Andi => setx!(inst.rd, x(inst.rs1) & inst.imm as i64),
            Ori => setx!(inst.rd, x(inst.rs1) | inst.imm as i64),
            Xori => setx!(inst.rd, x(inst.rs1) ^ inst.imm as i64),
            Slli => setx!(inst.rd, x(inst.rs1).wrapping_shl(inst.imm as u32 & 63)),
            Srli => setx!(inst.rd, ((x(inst.rs1) as u64) >> (inst.imm as u32 & 63)) as i64),
            Srai => setx!(inst.rd, x(inst.rs1).wrapping_shr(inst.imm as u32 & 63)),
            Slti => setx!(inst.rd, i64::from(x(inst.rs1) < inst.imm as i64)),
            Lui => setx!(inst.rd, (inst.imm as i64) << 16),
            Lw => {
                let addr = (x(inst.rs1).wrapping_add(inst.imm as i64)) as u64;
                setx!(inst.rd, self.mem.read_u64(addr) as i64);
                mem_access = Some(MemAccess { addr, size: 8, is_store: false });
            }
            Sw => {
                let addr = (x(inst.rs1).wrapping_add(inst.imm as i64)) as u64;
                self.mem.write_u64(addr, x(inst.rs2) as u64);
                mem_access = Some(MemAccess { addr, size: 8, is_store: true });
            }
            Lb => {
                let addr = (x(inst.rs1).wrapping_add(inst.imm as i64)) as u64;
                setx!(inst.rd, i64::from(self.mem.read_u8(addr)));
                mem_access = Some(MemAccess { addr, size: 1, is_store: false });
            }
            Sb => {
                let addr = (x(inst.rs1).wrapping_add(inst.imm as i64)) as u64;
                self.mem.write_u8(addr, x(inst.rs2) as u8);
                mem_access = Some(MemAccess { addr, size: 1, is_store: true });
            }
            Flw => {
                let addr = (x(inst.rs1).wrapping_add(inst.imm as i64)) as u64;
                setf!(inst.fd, self.mem.read_f64(addr));
                mem_access = Some(MemAccess { addr, size: 8, is_store: false });
            }
            Fsw => {
                let addr = (x(inst.rs1).wrapping_add(inst.imm as i64)) as u64;
                self.mem.write_f64(addr, f(inst.fs2));
                mem_access = Some(MemAccess { addr, size: 8, is_store: true });
            }
            Beq | Bne | Blt | Bge | Bltu | Bgeu => {
                let (a, b) = (x(inst.rs1), x(inst.rs2));
                let taken = match inst.op {
                    Beq => a == b,
                    Bne => a != b,
                    Blt => a < b,
                    Bge => a >= b,
                    Bltu => (a as u64) < (b as u64),
                    _ => (a as u64) >= (b as u64),
                };
                let target = (pc as i64).wrapping_add(inst.imm as i64) as u64;
                if taken {
                    next_pc = target;
                }
                branch = Some(BranchOutcome { taken, target });
            }
            Jal => {
                let target = (pc as i64).wrapping_add(inst.imm as i64) as u64;
                setx!(inst.rd, (pc + 4) as i64);
                next_pc = target;
                branch = Some(BranchOutcome { taken: true, target });
            }
            Jalr => {
                let target = (x(inst.rs1).wrapping_add(inst.imm as i64) as u64) & !3;
                setx!(inst.rd, (pc + 4) as i64);
                next_pc = target;
                branch = Some(BranchOutcome { taken: true, target });
            }
            Fadd => setf!(inst.fd, f(inst.fs1) + f(inst.fs2)),
            Fsub => setf!(inst.fd, f(inst.fs1) - f(inst.fs2)),
            Fmul => setf!(inst.fd, f(inst.fs1) * f(inst.fs2)),
            Fdiv => setf!(inst.fd, f(inst.fs1) / f(inst.fs2)),
            Fsqrt => setf!(inst.fd, f(inst.fs1).sqrt()),
            Fmin => setf!(inst.fd, f(inst.fs1).min(f(inst.fs2))),
            Fmax => setf!(inst.fd, f(inst.fs1).max(f(inst.fs2))),
            Fabs => setf!(inst.fd, f(inst.fs1).abs()),
            Fneg => setf!(inst.fd, -f(inst.fs1)),
            Fcvtdw => setf!(inst.fd, x(inst.rs1) as f64),
            Fcvtwd => {
                let v = f(inst.fs1);
                let int = if v.is_nan() { 0 } else { v.clamp(i64::MIN as f64, i64::MAX as f64) as i64 };
                setx!(inst.rd, int);
            }
            Feq => setx!(inst.rd, i64::from(f(inst.fs1) == f(inst.fs2))),
            Flt => setx!(inst.rd, i64::from(f(inst.fs1) < f(inst.fs2))),
            Fle => setx!(inst.rd, i64::from(f(inst.fs1) <= f(inst.fs2))),
            Fmv => setf!(inst.fd, f(inst.fs1)),
            Halt => {
                self.halted = true;
                next_pc = pc;
            }
            Out => self.output.push(x(inst.rs1)),
            Nop => {}
        }

        let record = Retired {
            seq: self.retired,
            pc,
            inst,
            next_pc,
            mem: mem_access,
            branch,
        };
        self.retired += 1;
        self.pc = next_pc;
        Ok(Some(record))
    }

    /// Runs until `halt`, retiring at most `budget` instructions.
    ///
    /// Returns the number of instructions retired.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::BudgetExhausted`] if the program does not halt
    /// within `budget` instructions, or [`ExecError::BadPc`] on a wild PC.
    pub fn run_to_halt(&mut self, budget: u64) -> Result<u64, ExecError> {
        let start = self.retired;
        while !self.halted {
            if self.retired - start >= budget {
                return Err(ExecError::BudgetExhausted(budget));
            }
            self.step()?;
        }
        Ok(self.retired - start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdtm_isa::asm::assemble;
    use tdtm_isa::FReg;

    fn run(src: &str) -> Cpu {
        let p = assemble(src).expect("assembles");
        let mut cpu = Cpu::new(&p);
        cpu.run_to_halt(1_000_000).expect("halts");
        cpu
    }

    #[test]
    fn arithmetic_basics() {
        let cpu = run(
            "li x1, 6
             li x2, 7
             mul x3, x1, x2
             sub x4, x3, x1
             div x5, x3, x2
             rem x6, x3, x1   # 42 % 6 = 0
             out x3
             out x4
             out x5
             out x6
             halt",
        );
        assert_eq!(cpu.output(), &[42, 36, 6, 0]);
    }

    #[test]
    fn division_by_zero_is_defined() {
        let cpu = run(
            "li x1, 9
             div x2, x1, x0
             rem x3, x1, x0
             out x2
             out x3
             halt",
        );
        assert_eq!(cpu.output(), &[0, 9]);
    }

    #[test]
    fn x0_ignores_writes() {
        let cpu = run("addi x0, x0, 5\nout x0\nhalt");
        assert_eq!(cpu.output(), &[0]);
    }

    #[test]
    fn loads_and_stores() {
        let cpu = run(
            "        .data
             v:      .word 11, 22
                     .text
                     la x1, v
                     lw x2, 0(x1)
                     lw x3, 8(x1)
                     add x4, x2, x3
                     sw x4, 16(x1)
                     lw x5, 16(x1)
                     out x5
                     halt",
        );
        assert_eq!(cpu.output(), &[33]);
    }

    #[test]
    fn byte_accesses() {
        let cpu = run(
            "li x1, 0x300
             li x2, 0x1FF
             sb x2, 0(x1)    # stores 0xFF
             lb x3, 0(x1)
             out x3
             halt",
        );
        assert_eq!(cpu.output(), &[0xFF]);
    }

    #[test]
    fn fp_pipeline() {
        let cpu = run(
            "li x1, 9
             fcvt.d.w f1, x1
             fsqrt f2, f1
             fmul f3, f2, f2
             fcvt.w.d x2, f3
             out x2
             halt",
        );
        assert_eq!(cpu.output(), &[9]);
    }

    #[test]
    fn fp_memory_round_trip() {
        let p = assemble(
            "        .data
             c:      .double 2.5
                     .text
                     la x1, c
                     flw f1, 0(x1)
                     fadd f2, f1, f1
                     fsw f2, 8(x1)
                     flw f3, 8(x1)
                     halt",
        )
        .unwrap();
        let mut cpu = Cpu::new(&p);
        cpu.run_to_halt(100).unwrap();
        assert_eq!(cpu.freg(FReg::new(3)), 5.0);
    }

    #[test]
    fn call_and_return() {
        let cpu = run(
            "        li x10, 5
                     call double
                     out x10
                     halt
             double: add x10, x10, x10
                     ret",
        );
        assert_eq!(cpu.output(), &[10]);
    }

    #[test]
    fn retired_records_expose_oracle_info() {
        let p = assemble(
            "     li x1, 2
             l:   addi x1, x1, -1
                  bne x1, x0, l
                  halt",
        )
        .unwrap();
        let mut cpu = Cpu::new(&p);
        let mut records = Vec::new();
        while !cpu.halted() {
            records.push(cpu.step().unwrap().unwrap());
        }
        // li, addi, bne(taken), addi, bne(not taken), halt
        assert_eq!(records.len(), 6);
        let taken = records[2].branch.unwrap();
        assert!(taken.taken);
        assert_eq!(taken.target, records[1].pc);
        let not_taken = records[4].branch.unwrap();
        assert!(!not_taken.taken);
        assert_eq!(records[4].next_pc, records[4].pc + 4);
        assert_eq!(records[0].seq, 0);
        assert_eq!(records[5].seq, 5);
    }

    #[test]
    fn budget_exhaustion_reported() {
        let p = assemble("l: j l").unwrap();
        let mut cpu = Cpu::new(&p);
        assert!(matches!(cpu.run_to_halt(10), Err(ExecError::BudgetExhausted(10))));
    }

    #[test]
    fn wild_pc_reported() {
        let p = assemble("jalr x0, x0, 0x8000").unwrap();
        let mut cpu = Cpu::new(&p);
        cpu.step().unwrap();
        assert!(matches!(cpu.step(), Err(ExecError::BadPc(_))));
    }

    #[test]
    fn step_after_halt_is_none() {
        let p = assemble("halt").unwrap();
        let mut cpu = Cpu::new(&p);
        assert!(cpu.step().unwrap().is_some());
        assert!(cpu.step().unwrap().is_none());
        assert!(cpu.halted());
    }

    #[test]
    fn stack_pointer_initialized() {
        let p = assemble("halt").unwrap();
        let cpu = Cpu::new(&p);
        assert_eq!(cpu.xreg(Reg::SP), STACK_BASE as i64);
    }
}
