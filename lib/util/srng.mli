(** Deterministic, splittable pseudo-random number generator.

    Implementation of SplitMix64 (Steele, Lea, Flood 2014).  Every
    stochastic component of the library draws from an explicit [t] so
    that experiments are reproducible from a single seed and independent
    subsystems can be given independent streams via {!split}. *)

type t

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. *)

val copy : t -> t
(** [copy g] duplicates the current state of [g], including any cached
    Box-Muller half; the copy and [g] then produce the same stream. *)

val jump : t -> int -> unit
(** [jump g n] advances [g] past the next [n] raw draws in O(1) —
    SplitMix64's state moves by a fixed increment per draw — and clears
    any cached Box-Muller half.  After [jump g n], [g] produces exactly
    the stream a fresh copy would after [n] calls to {!bits64}.  Used
    by the parallel Monte-Carlo engine to hand each sample chunk the
    exact continuation of the serial stream. *)

val split : t -> t
(** [split g] advances [g] and returns a new generator whose stream is
    statistically independent of [g]'s subsequent output. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int g n] draws uniformly from [0, n-1].  [n] must be positive. *)

val float : t -> float -> float
(** [float g x] draws uniformly from [0, x). *)

val uniform : t -> float
(** Uniform draw in [0,1). *)

val gaussian : t -> float
(** Standard normal draw (Box-Muller, cached pair). *)

val gaussian_mu_sigma : t -> mu:float -> sigma:float -> float
(** Normal draw with the given mean and standard deviation. *)

val fill_gaussians : t -> float array -> pos:int -> len:int -> unit
(** [fill_gaussians g out ~pos ~len] writes [len] standard normal draws
    into [out.(pos .. pos+len-1)], {e bit-identical} to [len] successive
    {!gaussian} calls (including the cached Box-Muller half at both
    ends), but through one tight loop that keeps the SplitMix64 state in
    a local and allocates nothing per pair — the bulk-draw entry point
    of the batched Monte-Carlo engine and of every die's Lgate draw.
    Because the bit-identity holds for any [len], callers may mix
    [gaussian] and [fill_gaussians] calls freely without changing the
    stream. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
