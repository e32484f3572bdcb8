type kind = Next_line | Stride of int

type t = {
  kind : kind;
  mutable last_addr : int;
  mutable last_stride : int;
  mutable confidence : int;
  mutable issued : int;
  history_needed : int;
}

let create kind =
  let history_needed = match kind with Next_line -> 0 | Stride n -> max 1 n in
  { kind; last_addr = -1; last_stride = 0; confidence = 0; issued = 0; history_needed }

let line_bytes = 64

let fill t h addr =
  t.issued <- t.issued + 1;
  Hierarchy.prefetch_fill h addr

let on_demand_access t h addr ~hit =
  (match t.kind with
   | Next_line ->
     (* Classic next-line: trigger on demand misses only. *)
     if not hit then fill t h (addr + line_bytes)
   | Stride _ ->
     if t.last_addr >= 0 then begin
       let stride = addr - t.last_addr in
       if stride = t.last_stride && stride <> 0 then
         t.confidence <- min (t.confidence + 1) 8
       else begin
         t.confidence <- 0;
         t.last_stride <- stride
       end;
       if t.confidence >= t.history_needed then
         fill t h (addr + t.last_stride)
     end);
  t.last_addr <- addr

let issued t = t.issued
