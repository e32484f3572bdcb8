type precision_counts = { f16 : int; f32 : int; f64 : int }

type counters = {
  valu_add : precision_counts;
  valu_mul : precision_counts;
  valu_trans : precision_counts;
  valu_fma : precision_counts;
  valu_total : int;
  salu : int;
  smem : int;
  vmem : int;
  branches : int;
  waves : int;
  cycles : int;
}

type bank = { mutable b16 : int; mutable b32 : int; mutable b64 : int }

type t = {
  add : bank;
  mul : bank;
  trans : bank;
  fma : bank;
  mutable valu_total : int;
  mutable salu : int;
  mutable smem : int;
  mutable vmem : int;
  mutable branches : int;
  mutable waves : int;
  mutable cycles : int;
}

let fresh_bank () = { b16 = 0; b32 = 0; b64 = 0 }

let create () =
  {
    add = fresh_bank ();
    mul = fresh_bank ();
    trans = fresh_bank ();
    fma = fresh_bank ();
    valu_total = 0;
    salu = 0;
    smem = 0;
    vmem = 0;
    branches = 0;
    waves = 0;
    cycles = 0;
  }

let bump bank (p : Isa.precision) n =
  match p with
  | Isa.F16 -> bank.b16 <- bank.b16 + n
  | Isa.F32 -> bank.b32 <- bank.b32 + n
  | Isa.F64 -> bank.b64 <- bank.b64 + n

let exec t instr n =
  t.cycles <- t.cycles + (Isa.latency instr * n);
  match instr with
  | Isa.Valu (op, p) ->
    t.valu_total <- t.valu_total + n;
    (match op with
     (* Hardware aliasing: one counter for add and sub. *)
     | Isa.Vadd | Isa.Vsub -> bump t.add p n
     | Isa.Vmul -> bump t.mul p n
     | Isa.Vtrans -> bump t.trans p n
     | Isa.Vfma -> bump t.fma p n)
  | Isa.Salu -> t.salu <- t.salu + n
  | Isa.Smem -> t.smem <- t.smem + n
  | Isa.Vmem -> t.vmem <- t.vmem + n
  | Isa.Branch -> t.branches <- t.branches + n

let run t (k : Kernel.t) =
  t.waves <- t.waves + k.wavefronts;
  let dynamic = k.iterations * k.wavefronts in
  List.iter (fun instr -> exec t instr dynamic) k.body

let freeze bank = { f16 = bank.b16; f32 = bank.b32; f64 = bank.b64 }

let counters t =
  {
    valu_add = freeze t.add;
    valu_mul = freeze t.mul;
    valu_trans = freeze t.trans;
    valu_fma = freeze t.fma;
    valu_total = t.valu_total;
    salu = t.salu;
    smem = t.smem;
    vmem = t.vmem;
    branches = t.branches;
    waves = t.waves;
    cycles = t.cycles;
  }

let pick counts (p : Isa.precision) =
  match p with Isa.F16 -> counts.f16 | Isa.F32 -> counts.f32 | Isa.F64 -> counts.f64

let valu_count c ~op ~precision =
  match (op : Isa.op) with
  | Isa.Vadd | Isa.Vsub -> pick c.valu_add precision
  | Isa.Vmul -> pick c.valu_mul precision
  | Isa.Vtrans -> pick c.valu_trans precision
  | Isa.Vfma -> pick c.valu_fma precision
