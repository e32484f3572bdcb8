type instr =
  | Fp of {
      precision : Hwsim.Keys.fp_precision;
      width : Hwsim.Keys.fp_width;
      fma : bool;
    }
  | Int_alu
  | Load
  | Store
  | Branch_back

let fp ?(fma = false) precision width = Fp { precision; width; fma }
