(** Monte Carlo statistical static timing analysis (paper §4.3).

    Each sample draws a fresh per-gate Lgate realisation at the chosen
    die position, rescales the nominal delays and re-runs STA; the
    per-stage worst path delays are accumulated into distributions that
    are then fitted to normals with a chi-square acceptance test, as
    the paper does.  A per-cell supply assignment makes the same engine
    serve both the plain SSTA of Fig. 3 and the voltage-island
    compensation checks of §4.5. *)

open Pvtol_netlist

type config = {
  samples : int;
  seed : int;
}

val default_config : config
(** 400 samples, seed 2024. *)

type engine =
  | Golden
      (** The scalar reference engine: one full STA pass per sample.
          Bit-for-bit the historical results. *)
  | Batched
      (** Structure-of-arrays fast path: 32 samples propagated per
          graph walk with a polynomial delay-scale.  Identical gaussian
          draws; worst-slack values agree with [Golden] to ~1e-12
          relative (the documented {!Pvtol_variation.Sampler} fit
          bound). *)

val engine_of_env : unit -> engine
(** Engine selected by the [PVTOL_MC_ENGINE] environment variable:
    [golden] or [batched] (the default, also used — with a one-shot
    warning — for unrecognised values). *)

val substream_seed : int -> int list -> int
(** [substream_seed seed keys] folds the boost-style hash combine over
    [keys] to derive a deterministic, non-negative RNG seed for one
    substream of a larger experiment (one wafer grid cell, one sampling
    round at one stratum, ...).  The same root seed and key path always
    yield the same substream regardless of domain count or visit order
    — the seeding discipline behind every bit-identical parallel sweep
    in the library. *)

type stage_stats = {
  stage : Stage.t;
  samples : float array;        (** per-sample worst path delay, ns *)
  summary : Pvtol_util.Stats.summary;
  fit : Pvtol_util.Fit.normal;
  gof : Pvtol_util.Fit.gof;
}

type result = {
  position : Pvtol_variation.Position.t;
  stages : stage_stats list;    (** timing stages with endpoints *)
  worst_samples : float array;  (** global critical-path delay samples *)
  endpoint_critical_count : (Netlist.cell_id, int) Hashtbl.t;
      (** how often each flop was within 2% of the sample's worst
          stage delay — the raw data for Razor site selection *)
}

val run :
  ?config:config ->
  ?engine:engine ->
  ?vdd:(Netlist.cell_id -> float) ->
  ?pool:Pvtol_util.Pool.t ->
  sampler:Pvtol_variation.Sampler.t ->
  sta:Pvtol_timing.Sta.t ->
  placement:Pvtol_place.Placement.t ->
  position:Pvtol_variation.Position.t ->
  unit ->
  result
(** [vdd] defaults to the library's low supply for every cell;
    [engine] defaults to {!engine_of_env}.

    The sample range is cut into fixed 32-sample chunks executed on
    [pool] (default {!Pvtol_util.Pool.shared}, sized by the
    [PVTOL_DOMAINS] environment variable).  Each chunk reconstructs —
    via an O(1) SplitMix64 jump ({!Pvtol_util.Srng.jump}) — the exact
    RNG state the legacy serial loop would hold at the chunk's first
    sample, and every chunk writes a disjoint slice of the sample
    arrays, so the output is {e bit-identical} for every domain count
    (and, under [Golden], to the pre-parallel serial engine).  The
    [Batched] engine consumes the same gaussian stream chunk by chunk
    and is likewise domain-count invariant; versus [Golden] its
    worst-slack samples differ only within the documented delay-scale
    fit bound.  Per-worker workspaces keep both inner loops free of
    per-sample heap allocation.  [run] is {!run_many} with one job. *)

type job = Pvtol_variation.Position.t * (Netlist.cell_id -> float) option
(** One analysis of a {!run_many}: a die position and a per-cell supply
    map ([None] = the library's low supply everywhere). *)

val run_many :
  ?config:config ->
  ?engine:engine ->
  ?pool:Pvtol_util.Pool.t ->
  sampler:Pvtol_variation.Sampler.t ->
  sta:Pvtol_timing.Sta.t ->
  placement:Pvtol_place.Placement.t ->
  job list ->
  result list
(** Several analyses under one [config], one result per job in job
    order, each bit-identical to the {!run} of that job alone.

    Every job with the same seed draws the same random Lgate
    components — the jobs use common random numbers by contract — so
    each chunk's gaussians are drawn once and every job forms its own
    Lgates (systematic field at its position plus the shared draw) and
    supply scaling from them.  Each pool worker allocates one scratch
    set (gaussian buffer, STA workspace, delay vector) and reuses it for
    every chunk and every job, so memory does not grow with the number
    of jobs beyond their result arrays.  {!run} is the one-job case. *)

val stage_stats : result -> Stage.t -> stage_stats option

val three_sigma_delay : stage_stats -> float
(** mean + 3 sigma of the stage's worst-delay distribution. *)
