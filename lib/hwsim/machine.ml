(* An event's terms as parallel arrays over interned key ids, in
   declared order. *)
type compiled = { event : Event.t; ids : int array; coefs : float array }

type catalog = { keys : string array; events : compiled array }

let compile events =
  let index = Hashtbl.create 64 in
  let rev_keys = ref [] in
  let intern key =
    match Hashtbl.find_opt index key with
    | Some id -> id
    | None ->
      let id = Hashtbl.length index in
      Hashtbl.add index key id;
      rev_keys := key :: !rev_keys;
      id
  in
  let compile_event (event : Event.t) =
    let terms = Array.of_list event.Event.terms in
    {
      event;
      ids = Array.map (fun (_, key) -> intern key) terms;
      coefs = Array.map fst terms;
    }
  in
  let events = Array.of_list (List.map compile_event events) in
  { keys = Array.of_list (List.rev !rev_keys); events }

let size catalog = Array.length catalog.events

let event catalog i = catalog.events.(i).event

let row catalog activity = Array.map (Activity.get activity) catalog.keys

(* [Event.ideal_value]'s fold: the offset, then each term in order. *)
let[@inline] ideal { event; ids; coefs } row =
  let acc = ref event.Event.offset in
  for t = 0 to Array.length ids - 1 do
    acc := !acc +. (coefs.(t) *. row.(ids.(t)))
  done;
  !acc

let sweep catalog ~seed ~rep i rows =
  let c = catalog.events.(i) in
  let noise = c.event.Event.noise in
  let open Numkit.Rng in
  let h = hash_extend (hash_extend (hash_string seed) "|") c.event.Event.name in
  let prefix = hash_extend (hash_extend_int (hash_extend h "|rep=") rep) "|row=" in
  let rng = create prefix in
  let n = Array.length rows in
  let out = Array.create_float n in
  for r = 0 to n - 1 do
    out.(r) <- ideal c rows.(r)
  done;
  Noise_model.read noise rng ~prefix out;
  (* The counters a reading at a time would leave, never a zero one. *)
  if n > 0 && Obs.enabled () then begin
    Obs.add "hwsim.readings" (float_of_int n);
    let draws = Noise_model.draws noise in
    if draws > 0 then Obs.add "hwsim.noise_draws" (float_of_int (n * draws))
  end;
  out
