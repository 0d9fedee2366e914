(* Tests for the process-variation model: field polynomial, positions,
   per-gate sampling. *)

module Field = Pvtol_variation.Field
module Position = Pvtol_variation.Position
module Sampler = Pvtol_variation.Sampler
module Process = Pvtol_stdcell.Process
module Srng = Pvtol_util.Srng
module Stats = Pvtol_util.Stats
module Netlist = Pvtol_netlist.Netlist

let field = Field.default

let test_calibration () =
  (* Over the chip-sized calibration region, |deviation| peaks at 5.5%. *)
  let worst = ref 0.0 in
  for i = 0 to 100 do
    for j = 0 to 100 do
      let x = float_of_int i *. 14.0 /. 100.0 in
      let y = float_of_int j *. 14.0 /. 100.0 in
      worst := Float.max !worst (Float.abs (Field.deviation_frac field ~x_mm:x ~y_mm:y))
    done
  done;
  Alcotest.(check bool) "max deviation ~ 5.5%" true
    (!worst > 0.054 && !worst < 0.0555)

let test_slow_corner_at_origin () =
  let at f = Field.deviation_frac field ~x_mm:(f *. 14.0) ~y_mm:(f *. 14.0) in
  Alcotest.(check bool) "origin is the slow corner" true (at 0.0 > 0.05);
  (* Deviation decreases monotonically along the diagonal. *)
  let prev = ref infinity in
  List.iter
    (fun f ->
      let d = at f in
      Alcotest.(check bool) "monotone along diagonal" true (d < !prev);
      prev := d)
    [ 0.0; 0.2; 0.4; 0.6; 0.8; 1.0 ]

let test_field_clamped () =
  let inside = Field.systematic_nm field ~x_mm:0.0 ~y_mm:0.0 in
  let outside = Field.systematic_nm field ~x_mm:(-5.0) ~y_mm:(-5.0) in
  Alcotest.(check bool) "clamped outside field" true
    (Float.abs (inside -. outside) < 1e-9)

let test_render_map () =
  let map = Field.render_map field ~chip_mm:14.0 in
  Alcotest.(check bool) "renders" true (String.length map > 200)

let test_positions () =
  let a = Position.point_a in
  Alcotest.(check string) "A label" "A" a.Position.label;
  let x, y = Position.to_field a ~x_um:500.0 ~y_um:250.0 in
  Alcotest.(check bool) "um to mm" true
    (Float.abs (x -. 0.5) < 1e-9 && Float.abs (y -. 0.25) < 1e-9);
  let mid = Position.at_fraction 0.5 in
  Alcotest.(check bool) "fraction position" true
    (Float.abs (mid.Position.origin_x_mm -. 7.0) < 1e-9)

let placed_small =
  lazy
    (let v = Pvtol_vex.Vex_core.build Pvtol_vex.Vex_core.small_config in
     let nl = v.Pvtol_vex.Vex_core.netlist in
     let fp = Pvtol_place.Floorplan.create ~cell_area:(Netlist.area nl) () in
     Pvtol_place.Placer.place nl fp)

let test_systematic_per_position () =
  let p = Lazy.force placed_small in
  let sampler = Sampler.create () in
  let at_a = Sampler.systematic_lgates sampler p Position.point_a in
  let at_d = Sampler.systematic_lgates sampler p Position.point_d in
  (* Every cell is slower (longer Lgate) at A than at D. *)
  Array.iteri
    (fun i la ->
      Alcotest.(check bool) "A longer than D" true (la > at_d.(i)))
    at_a;
  let nominal = sampler.Sampler.process.Process.l_nominal_nm in
  Array.iter
    (fun l ->
      Alcotest.(check bool) "A deviation within budget" true
        (l <= nominal *. 1.056 && l >= nominal))
    at_a

let test_sampling_moments () =
  let p = Lazy.force placed_small in
  let sampler = Sampler.create () in
  let systematic = Sampler.systematic_lgates sampler p Position.point_b in
  let rng = Srng.create 31 in
  let out = Array.make (Array.length systematic) 0.0 in
  let acc_err = Stats.Running.create () in
  for _ = 1 to 40 do
    Sampler.sample_lgates sampler ~systematic rng out;
    Array.iteri (fun i v -> Stats.Running.add acc_err (v -. systematic.(i))) out
  done;
  (* Residuals are ~N(0, sigma_rnd). *)
  let mean = Stats.Running.mean acc_err and sd = Stats.Running.stddev acc_err in
  Alcotest.(check bool) "random mean ~ 0" true (Float.abs mean < 0.02);
  Alcotest.(check bool) "random sigma matches" true
    (Float.abs (sd -. sampler.Sampler.sigma_rnd_nm) < 0.02)

let test_delay_scale_consistency () =
  let sampler = Sampler.create () in
  let s = Sampler.delay_scale sampler ~lgate_nm:67.0 ~vdd:1.1 in
  let expected = Process.delay_scale sampler.Sampler.process ~vdd:1.1 ~lgate_nm:67.0 in
  Alcotest.(check bool) "matches process model" true (Float.abs (s -. expected) < 1e-12)

let test_scale_delays_vectorized () =
  (* Bit for bit the per-cell [base * delay_scale] product, at a mixed
     per-cell supply map, although the nominal-corner denominator is
     hoisted out of the loop. *)
  let sampler = Sampler.create () in
  let n = 257 in
  let base = Array.init n (fun i -> 0.01 +. (0.003 *. float_of_int i)) in
  let lgates = Array.init n (fun i -> 60.0 +. (0.043 *. float_of_int i)) in
  let vdd i = if i mod 3 = 0 then 1.2 else 1.0 in
  let out = Array.make n 0.0 in
  Sampler.scale_delays sampler ~base ~lgates ~vdd ~out;
  Array.iteri
    (fun i b ->
      let expected =
        b *. Sampler.delay_scale sampler ~lgate_nm:lgates.(i) ~vdd:(vdd i)
      in
      if out.(i) <> expected then
        Alcotest.failf "cell %d: %h vs %h" i out.(i) expected)
    base

(* The batched kernel, element by element, against [base *. batch_scale]
   at the same Lgate: exact equality, so the four interleaved Horner
   chains and the [samples mod 4] tail do each lane's arithmetic in the
   scalar order.  Every lane count 1..33 (whole quads, every tail
   length, and more lanes than a chunk); a mixed three-supply map and
   one past [max_polys] distinct supplies (exact path); and quads with
   one lane forced outside the fit window, which must go lane by lane
   (that lane exact, its three neighbours on the polynomial). *)
let test_scale_delays_batch_lanes () =
  let sampler = Sampler.create () in
  let n = 97 and stride = 36 in
  let base = Array.init n (fun i -> 0.01 +. (0.003 *. float_of_int i)) in
  let systematic = Array.init n (fun i -> 60.0 +. (0.05 *. float_of_int i)) in
  let rng = Srng.create 11 in
  let gauss = Array.make (stride * n) 0.0 in
  Srng.fill_gaussians rng gauss ~pos:0 ~len:(stride * n);
  (* Lane 1 of the first quad of cell 5 and lane 30 (in the last whole
     quad of a 33-lane block) of cell 40: a 1000-sigma draw, far past
     the 10-sigma window. *)
  gauss.((1 * n) + 5) <- 1000.0;
  gauss.((30 * n) + 40) <- -1000.0;
  let sigma = sampler.Sampler.sigma_rnd_nm in
  let check label vdd =
    let b = Sampler.batch sampler ~base ~systematic ~vdd in
    for samples = 1 to 33 do
      let out = Array.make (n * stride) nan in
      Sampler.scale_delays_batch b ~gauss ~samples ~stride ~out;
      for i = 0 to n - 1 do
        for k = 0 to samples - 1 do
          let lgate_nm = systematic.(i) +. (sigma *. gauss.((k * n) + i)) in
          let expected = base.(i) *. Sampler.batch_scale b i ~lgate_nm in
          let got = out.((i * stride) + k) in
          if Int64.bits_of_float got <> Int64.bits_of_float expected then
            Alcotest.failf "%s: %d lanes, cell %d lane %d: %h vs %h" label
              samples i k got expected
        done
      done
    done
  in
  check "three supplies" (fun i -> [| 1.0; 1.2; 1.1 |].(i mod 3));
  check "past max_polys" (fun i -> 1.0 +. (0.001 *. float_of_int (i mod 20)));
  (* The forced lanes really took the exact path. *)
  let b = Sampler.batch sampler ~base ~systematic ~vdd:(fun _ -> 1.0) in
  let lgate_nm = systematic.(5) +. (sigma *. 1000.0) in
  Alcotest.(check bool)
    "outside lane is exact" true
    (Sampler.batch_scale b 5 ~lgate_nm
    = Sampler.delay_scale sampler ~lgate_nm ~vdd:1.0)

(* [sample_lgates] against the per-call loop it replaced, on random
   lengths (odd and even), seeds and stream alignments (with and
   without a cached Box-Muller half pending): same Lgates bit for bit,
   and the two generators continue identically. *)
let test_sample_lgates_bitwise =
  QCheck.Test.make ~name:"sample_lgates = per-call gaussian loop" ~count:200
    QCheck.(triple (int_bound 100_000) (int_range 1 301) bool)
    (fun (seed, n, cached) ->
      let sampler = Sampler.create () in
      let systematic = Array.init n (fun i -> 62.0 +. (0.01 *. float_of_int i)) in
      let a = Srng.create seed and b = Srng.create seed in
      if cached then begin
        ignore (Srng.gaussian a);
        ignore (Srng.gaussian b)
      end;
      let expect =
        Array.init n (fun i ->
            systematic.(i) +. (sampler.Sampler.sigma_rnd_nm *. Srng.gaussian a))
      in
      let got = Array.make n nan in
      Sampler.sample_lgates sampler ~systematic b got;
      Array.for_all2 (fun e g -> Int64.equal (Int64.bits_of_float e)
        (Int64.bits_of_float g)) expect got
      && Srng.gaussian a = Srng.gaussian b
      && Srng.gaussian a = Srng.gaussian b
      && Srng.bits64 a = Srng.bits64 b)

let test_systematic_into () =
  (* The allocation-free field evaluation equals [systematic_lgates] and
     the per-cell [Position.to_field] + [Field.systematic_nm] reference,
     bit for bit — also at positions where the field clamps. *)
  let p = Lazy.force placed_small in
  let sampler = Sampler.create () in
  let n = Array.length p.Pvtol_place.Placement.xs in
  let out = Array.make n nan in
  List.iter
    (fun pos ->
      Sampler.systematic_into sampler p pos ~out;
      let fresh = Sampler.systematic_lgates sampler p pos in
      Array.iteri
        (fun i v ->
          let x_mm, y_mm =
            Position.to_field pos ~x_um:p.Pvtol_place.Placement.xs.(i)
              ~y_um:p.Pvtol_place.Placement.ys.(i)
          in
          let reference = Field.systematic_nm sampler.Sampler.field ~x_mm ~y_mm in
          if v <> reference || fresh.(i) <> reference then
            Alcotest.failf "%s cell %d: %h / %h vs %h" pos.Position.label i v
              fresh.(i) reference)
        out)
    [ Position.point_a; Position.point_c;
      Position.at_xy ~x_frac:0.37 ~y_frac:0.91 ();
      Position.at_xy ~x_frac:(-0.5) ~y_frac:2.5 () ]

let test_custom_budget () =
  let f = Field.create ~l_nominal_nm:65.0 ~max_dev_frac:0.02 () in
  let lo, hi = Field.extremes f in
  ignore lo;
  Alcotest.(check bool) "custom budget respected on chip region" true
    (hi <= 65.0 *. 1.021);
  let s = Sampler.create ~three_sigma_rnd_frac:0.03 () in
  Alcotest.(check bool) "sigma from 3-sigma budget" true
    (Float.abs (s.Sampler.sigma_rnd_nm -. (0.01 *. 65.0)) < 1e-9)

let suite =
  ( "variation",
    [
      Alcotest.test_case "field calibration" `Quick test_calibration;
      Alcotest.test_case "slow corner at origin" `Quick test_slow_corner_at_origin;
      Alcotest.test_case "field clamped" `Quick test_field_clamped;
      Alcotest.test_case "render map" `Quick test_render_map;
      Alcotest.test_case "positions" `Quick test_positions;
      Alcotest.test_case "systematic per position" `Quick test_systematic_per_position;
      Alcotest.test_case "sampling moments" `Quick test_sampling_moments;
      Alcotest.test_case "delay scale consistency" `Quick test_delay_scale_consistency;
      Alcotest.test_case "scale_delays vectorized" `Quick test_scale_delays_vectorized;
      Alcotest.test_case "scale_delays_batch = batch_scale, lane by lane" `Quick
        test_scale_delays_batch_lanes;
      QCheck_alcotest.to_alcotest test_sample_lgates_bitwise;
      Alcotest.test_case "systematic_into" `Quick test_systematic_into;
      Alcotest.test_case "custom budget" `Quick test_custom_budget;
    ] )
