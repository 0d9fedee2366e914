open Pvtol_netlist
module Sta = Pvtol_timing.Sta
module Sampler = Pvtol_variation.Sampler
module Position = Pvtol_variation.Position
module Srng = Pvtol_util.Srng
module Stats = Pvtol_util.Stats
module Fit = Pvtol_util.Fit
module Pool = Pvtol_util.Pool
module Metrics = Pvtol_util.Metrics
module Log = Pvtol_util.Log

let m_samples = Metrics.counter "mc_samples_total"
let m_mc_chunks = Metrics.counter "mc_chunks_total"
let m_batches = Metrics.counter "mc_batches_total"

type config = { samples : int; seed : int }

let default_config = { samples = 400; seed = 2024 }

type engine = Golden | Batched

let engine_warn = Log.once ()

let engine_of_env () =
  match Sys.getenv_opt "PVTOL_MC_ENGINE" with
  | None | Some "" | Some "batched" -> Batched
  | Some "golden" -> Golden
  | Some other ->
    Log.warn_once engine_warn
      "PVTOL_MC_ENGINE=%S is not a known engine (golden|batched); using batched"
      other;
    Batched

type stage_stats = {
  stage : Stage.t;
  samples : float array;
  summary : Stats.summary;
  fit : Fit.normal;
  gof : Fit.gof;
}

type result = {
  position : Position.t;
  stages : stage_stats list;
  worst_samples : float array;
  endpoint_critical_count : (Netlist.cell_id, int) Hashtbl.t;
}

(* Samples per chunk.  Fixed — never derived from the domain count — so
   chunk boundaries, and therefore every RNG draw, are identical no
   matter how many domains execute the fan-out. *)
let chunk_size = 32

(* Boost-style hash combine, clamped non-negative for Srng.create. *)
let mix h k = (h lxor (k + 0x9e3779b9 + (h lsl 6) + (h lsr 2))) land max_int
let substream_seed seed keys = List.fold_left mix seed keys

(* The RNG state a serial run would hold when it reaches sample [s0].
   One SplitMix64 draw per Box-Muller uniform lets us jump there in
   O(1): [gaussians] normal deviates consume [2 * ceil (gaussians / 2)]
   raw draws, and an odd count leaves the pair's second half cached.
   (Box-Muller's u1 = 0 rejection re-draw has probability 2^-53 per
   pair; we ignore it, as does every practical SplitMix64 jump.)  This
   makes the chunked engine bit-identical to the legacy serial loop,
   independent of both chunk size and domain count. *)
let rng_at_sample ~seed ~gaussians =
  let g = Srng.create seed in
  if gaussians land 1 = 0 then Srng.jump g gaussians
  else begin
    Srng.jump g (gaussians - 1);
    (* Draw the pair straddling the chunk boundary; its first half was
       consumed by the previous chunk, its second is left cached. *)
    ignore (Srng.gaussian g)
  end;
  g

type job = Position.t * (Netlist.cell_id -> float) option

(* What a job fixes before the chunk loop: its systematic field, its
   supply map, its batched scale state (polynomial fits, immutable and
   shared read-only by the workers) and the sample arrays it owns. *)
type job_state = {
  systematic : float array;
  vdd : Netlist.cell_id -> float;
  batch : Sampler.batch option;
  stage_samples : float array list;  (* one per [active] stage *)
  worst : float array;
}

(* Per-worker scratch, allocated once and reused for every chunk and
   every job the worker runs.  The golden engine draws one n-vector per
   sample into [z]; the batched engine draws a chunk's whole
   sample-major [chunk_size * n] block into [gauss]. *)
type scratch =
  | Scalar of {
      z : float array;
      lgates : float array;
      delays : float array;
      ws : Sta.workspace;
    }
  | Block of { gauss : float array; bw : Sta.batch_workspace }

let run_many ?(config = default_config) ?(engine = engine_of_env ()) ?pool
    ~sampler ~sta ~placement jobs =
  let nl = Sta.netlist sta in
  let low =
    nl.Netlist.lib.Pvtol_stdcell.Cell.process.Pvtol_stdcell.Process.vdd_low
  in
  let n = Netlist.cell_count nl in
  let base = Sta.nominal_delays sta in
  (* Endpoint sets are precomputed once: the per-sample loop must not
     re-filter the flop array.  Criticality is counted per flop slot —
     the endpoints' cell ids, sorted — rather than per cell id, so a
     chunk's counts are an array of flops, not of cells. *)
  let active =
    List.filter_map
      (fun s ->
        let eps = Sta.stage_endpoint_ids sta s in
        if Array.length eps > 0 then Some (s, eps) else None)
      Stage.all
  in
  let slot_cid =
    List.concat_map (fun (_, eps) -> Array.to_list eps) active
    |> List.sort_uniq compare |> Array.of_list
  in
  let slot_of = Array.make n (-1) in
  Array.iteri (fun slot cid -> slot_of.(cid) <- slot) slot_cid;
  let active =
    List.map (fun (s, eps) -> (s, eps, Array.map (Array.get slot_of) eps)) active
  in
  let nslots = Array.length slot_cid in
  let jobs = Array.of_list jobs in
  let states =
    Array.map
      (fun (position, vdd) ->
        let vdd = match vdd with Some f -> f | None -> fun _ -> low in
        let systematic = Sampler.systematic_lgates sampler placement position in
        {
          systematic;
          vdd;
          batch =
            (match engine with
            | Golden -> None
            | Batched -> Some (Sampler.batch sampler ~base ~systematic ~vdd));
          stage_samples =
            List.map (fun _ -> Array.make config.samples 0.0) active;
          worst = Array.make config.samples 0.0;
        })
      jobs
  in
  (* One sample's results for one job: its worst path, per-stage worst
     and endpoint criticality (flops within 2% of their stage's worst). *)
  let record js crit k ~worst ~stage_delay ~endpoint_delay =
    js.worst.(k) <- worst;
    List.iter2
      (fun (s, eps, slots) arr ->
        match stage_delay s with
        | None -> ()
        | Some stage_worst ->
          arr.(k) <- stage_worst;
          Array.iteri
            (fun e cid ->
              if endpoint_delay cid >= 0.98 *. stage_worst then
                crit.(slots.(e)) <- crit.(slots.(e)) + 1)
            eps)
      active js.stage_samples
  in
  let init ~worker:_ =
    match engine with
    | Golden ->
      Scalar
        {
          z = Array.make n 0.0;
          lgates = Array.make n 0.0;
          delays = Array.make n 0.0;
          ws = Sta.workspace sta;
        }
    | Batched ->
      Block
        {
          gauss = Array.make (chunk_size * n) 0.0;
          bw = Sta.batch_workspace ~lanes:chunk_size sta;
        }
  in
  (* Each chunk draws its gaussians once, from the RNG state a serial
     run reaches at its first sample, and every job forms its own
     Lgates from that draw: all jobs see the samples an independent
     [run] with the same seed would draw.  A chunk owns a disjoint
     slice of every sample array, so workers write without
     synchronisation; the per-chunk criticality counts are returned and
     merged in chunk order below. *)
  let run_chunk st c =
    let s0 = c * chunk_size in
    let s1 = min config.samples (s0 + chunk_size) in
    let kb = s1 - s0 in
    Metrics.incr m_mc_chunks;
    Metrics.add m_samples (kb * Array.length jobs);
    let rng = rng_at_sample ~seed:config.seed ~gaussians:(s0 * n) in
    let crits = Array.map (fun _ -> Array.make nslots 0) jobs in
    (match st with
    | Scalar { z; lgates; delays; ws } ->
      for k = s0 to s1 - 1 do
        Srng.fill_gaussians rng z ~pos:0 ~len:n;
        Array.iteri
          (fun j js ->
            Sampler.lgates_of_gaussians sampler ~systematic:js.systematic ~z
              ~out:lgates;
            Sampler.scale_delays sampler ~base ~lgates ~vdd:js.vdd ~out:delays;
            Sta.analyze_into sta ws ~delays;
            record js crits.(j) k ~worst:(Sta.ws_worst ws)
              ~stage_delay:(Sta.ws_stage_delay ws)
              ~endpoint_delay:(Sta.ws_endpoint_delay ws))
          states
      done
    | Block { gauss; bw } ->
      (* Sample-major, cells in id order: the golden draw order, so the
         block holds the same [kb * n] deviates. *)
      Srng.fill_gaussians rng gauss ~pos:0 ~len:(kb * n);
      Array.iteri
        (fun j js ->
          Metrics.incr m_batches;
          Sampler.scale_delays_batch (Option.get js.batch) ~gauss ~samples:kb
            ~stride:(Sta.batch_stride bw) ~out:(Sta.batch_delays bw);
          Sta.analyze_batch_into sta bw ~lanes:kb;
          for lane = 0 to kb - 1 do
            record js crits.(j) (s0 + lane) ~worst:(Sta.bw_worst bw lane)
              ~stage_delay:(fun s -> Sta.bw_stage_delay bw s lane)
              ~endpoint_delay:(fun cid -> Sta.bw_endpoint_delay sta bw cid lane)
          done)
        states);
    crits
  in
  let chunks =
    if Array.length jobs = 0 then 0
    else (config.samples + chunk_size - 1) / chunk_size
  in
  let pool = match pool with Some p -> p | None -> Pool.shared () in
  let crit_chunks = Pool.parallel_chunks pool ~chunks ~init ~f:run_chunk in
  Array.to_list
    (Array.mapi
       (fun j js ->
         (* Chunk order, then ascending cell id within a chunk: the
            insertion order of a per-cell-id merge. *)
         let critical_count = Hashtbl.create 256 in
         Array.iter
           (fun crits ->
             Array.iteri
               (fun slot c ->
                 if c > 0 then begin
                   let cid = slot_cid.(slot) in
                   Hashtbl.replace critical_count cid
                     (c
                     + Option.value
                         (Hashtbl.find_opt critical_count cid)
                         ~default:0)
                 end)
               crits.(j))
           crit_chunks;
         let stages =
           List.map2
             (fun (stage, _, _) samples ->
               let fit, gof = Fit.fit_and_test samples in
               { stage; samples; summary = Stats.summarize samples; fit; gof })
             active js.stage_samples
         in
         {
           position = fst jobs.(j);
           stages;
           worst_samples = js.worst;
           endpoint_critical_count = critical_count;
         })
       states)

let run ?config ?engine ?vdd ?pool ~sampler ~sta ~placement ~position () =
  match
    run_many ?config ?engine ?pool ~sampler ~sta ~placement [ (position, vdd) ]
  with
  | [ r ] -> r
  | _ -> assert false

let stage_stats r s =
  List.find_opt (fun ss -> Stage.equal ss.stage s) r.stages

let three_sigma_delay ss = Stats.three_sigma ss.summary
