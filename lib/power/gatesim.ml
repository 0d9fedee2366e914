open Pvtol_netlist
module Kind = Pvtol_stdcell.Kind
module Cell_lib = Pvtol_stdcell.Cell
module Srng = Pvtol_util.Srng

type stimulus = cycle:int -> input_index:int -> bool

type activity = {
  cycles : int;
  toggles : int array;
  rates : float array;
}

(* Kind codes of the compiled evaluator.  Dff never reaches it (the
   levelized order holds combinational cells only). *)
let code_of = function
  | Kind.Inv -> 0
  | Kind.Buf | Kind.Ls | Kind.Dff -> 1
  | Kind.Nand2 -> 2
  | Kind.Nand3 -> 3
  | Kind.Nor2 -> 4
  | Kind.Nor3 -> 5
  | Kind.And2 -> 6
  | Kind.Or2 -> 7
  | Kind.Xor2 -> 8
  | Kind.Xnor2 -> 9
  | Kind.Aoi21 -> 10
  | Kind.Oai21 -> 11
  | Kind.Mux2 -> 12
  | Kind.Tiehi -> 13
  | Kind.Tielo -> 14

(* {!Kind.eval} on 0/1 ints; [a], [b], [c] are input pins 0, 1, 2. *)
let eval code a b c =
  match code with
  | 0 -> 1 - a
  | 1 -> a
  | 2 -> 1 - (a land b)
  | 3 -> 1 - (a land b land c)
  | 4 -> 1 - (a lor b)
  | 5 -> 1 - (a lor b lor c)
  | 6 -> a land b
  | 7 -> a lor b
  | 8 -> a lxor b
  | 9 -> 1 - (a lxor b)
  | 10 -> 1 - ((a land b) lor c)
  | 11 -> 1 - ((a lor b) land c)
  | 12 -> if c = 1 then b else a
  | 13 -> 1
  | _ -> 0

(* The levelized netlist as flat arrays, one slot per combinational
   cell in evaluation order: its kind code, its fanin nets at a fixed
   stride of 3 (unused pins read the cell's own output net, which the
   code ignores) and its output net. *)
type compiled = {
  cell : int array;
  code : int array;
  fin : int array;
  fout : int array;
  flop_cell : int array;
  flop_d : int array;
  flop_q : int array;
}

let compile (nl : Netlist.t) =
  let cell = Netlist.comb_order nl in
  let n = Array.length cell in
  let fin = Array.make (3 * n) 0 in
  let fout = Array.make n 0 in
  let code =
    Array.mapi
      (fun slot cid ->
        let c = nl.Netlist.cells.(cid) in
        let kind = c.Netlist.cell.Cell_lib.kind in
        if Array.length c.Netlist.fanins <> Kind.arity kind then
          invalid_arg "Gatesim.run: arity mismatch";
        fout.(slot) <- c.Netlist.fanout;
        for pin = 0 to 2 do
          fin.((3 * slot) + pin) <-
            (if pin < Array.length c.Netlist.fanins then c.Netlist.fanins.(pin)
             else c.Netlist.fanout)
        done;
        code_of kind)
      cell
  in
  let flops = Netlist.flops nl in
  {
    cell;
    code;
    fin;
    fout;
    flop_cell = Array.map (fun (c : Netlist.cell) -> c.Netlist.id) flops;
    flop_d = Array.map (fun (c : Netlist.cell) -> c.Netlist.fanins.(0)) flops;
    flop_q = Array.map (fun (c : Netlist.cell) -> c.Netlist.fanout) flops;
  }

let run ?(cycles = 512) (nl : Netlist.t) stimulus =
  let p = compile nl in
  (* Net values and the flops' captured D values, one byte each
     (0 or 1). *)
  let value = Bytes.make (Netlist.net_count nl) '\000' in
  let captured = Bytes.make (Array.length p.flop_cell) '\000' in
  let get b i = Char.code (Bytes.unsafe_get b i) in
  let set b i v = Bytes.unsafe_set b i (Char.unsafe_chr v) in
  let toggles = Array.make (Netlist.cell_count nl) 0 in
  let inputs = nl.Netlist.inputs in
  let n_comb = Array.length p.cell and n_flops = Array.length p.flop_cell in
  for cycle = 0 to cycles - 1 do
    for idx = 0 to Array.length inputs - 1 do
      set value inputs.(idx)
        (Bool.to_int (stimulus ~cycle ~input_index:idx))
    done;
    (* Flop outputs already hold this cycle's Q; evaluate logic.  The
       net ids in [fin]/[fout] come from the netlist, so every [value]
       access is in bounds. *)
    for s = 0 to n_comb - 1 do
      let f = 3 * s in
      let v =
        eval p.code.(s)
          (get value p.fin.(f))
          (get value p.fin.(f + 1))
          (get value p.fin.(f + 2))
      in
      let out = p.fout.(s) in
      if v <> get value out then begin
        let cid = p.cell.(s) in
        toggles.(cid) <- toggles.(cid) + 1
      end;
      set value out v
    done;
    (* Clock edge: all flops capture D simultaneously. *)
    for i = 0 to n_flops - 1 do
      set captured i (get value p.flop_d.(i))
    done;
    for i = 0 to n_flops - 1 do
      let q = p.flop_q.(i) and v = get captured i in
      if v <> get value q then begin
        let cid = p.flop_cell.(i) in
        toggles.(cid) <- toggles.(cid) + 1
      end;
      set value q v
    done
  done;
  {
    cycles;
    toggles;
    rates =
      Array.map (fun t -> float_of_int t /. float_of_int cycles) toggles;
  }

let random_stimulus ~seed =
  (* Stateless hashing keeps the stimulus independent of evaluation
     order: bit = hash(seed, cycle, input). *)
  fun ~cycle ~input_index ->
    let g = Srng.create ((seed * 0x9E3779B1) lxor (cycle * 2654435761) lxor input_index) in
    Srng.uniform g < 0.5

let trace_stimulus (nl : Netlist.t) ~instr_prefix ~words ~fallback =
  let words = Array.of_list words in
  let n_cycles = Array.length words in
  assert (n_cycles > 0);
  (* Map input index -> (word, bit) when the input belongs to the
     instruction bus. *)
  let classify =
    Array.map
      (fun nid ->
        let name = nl.Netlist.nets.(nid).Netlist.net_name in
        let plen = String.length instr_prefix in
        if
          String.length name > plen + 1
          && String.sub name 0 plen = instr_prefix
          && name.[plen] = '['
        then
          let idx =
            int_of_string
              (String.sub name (plen + 1) (String.length name - plen - 2))
          in
          Some idx
        else None)
      nl.Netlist.inputs
  in
  let stim ~cycle ~input_index =
    match classify.(input_index) with
    | Some bit_idx ->
      let bundle = words.(cycle mod n_cycles) in
      let word = bundle.(bit_idx / 32) in
      Int32.logand (Int32.shift_right_logical word (bit_idx mod 32)) 1l = 1l
    | None -> fallback ~cycle ~input_index
  in
  (stim, n_cycles)

let mean_rate a =
  if Array.length a.rates = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 a.rates /. float_of_int (Array.length a.rates)
