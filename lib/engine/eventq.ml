(* Binary min-heap of events ordered by [(fire, seq)], stored as
   parallel arrays so a push or pop allocates nothing (growth aside):
   the keys and the owning shard live unboxed in int arrays, the thunks
   in their own array.  Sifting moves a hole instead of swapping, so
   each level costs one write per array. *)

type t = {
  mutable fire : int array;
  mutable seq : int array;
  mutable own : int array; (* shard that will execute the event *)
  mutable fn : (unit -> unit) array;
  mutable n : int;
  mutable popped_fire : int;
  mutable popped_seq : int;
  mutable popped_own : int;
}

let nop () = ()

(* small: every machine builds one during setup, and the arrays double
   on demand *)
let create () =
  let cap = 32 in
  {
    fire = Array.make cap 0;
    seq = Array.make cap 0;
    own = Array.make cap 0;
    fn = Array.make cap nop;
    n = 0;
    popped_fire = 0;
    popped_seq = 0;
    popped_own = 0;
  }

let length q = q.n

let is_empty q = q.n = 0

let grow q =
  let cap = Array.length q.fire in
  let extend a z =
    let b = Array.make (2 * cap) z in
    Array.blit a 0 b 0 cap;
    b
  in
  q.fire <- extend q.fire 0;
  q.seq <- extend q.seq 0;
  q.own <- extend q.own 0;
  q.fn <- extend q.fn nop

(* move element [j] into slot [i] *)
let move q ~src:j ~dst:i =
  q.fire.(i) <- q.fire.(j);
  q.seq.(i) <- q.seq.(j);
  q.own.(i) <- q.own.(j);
  q.fn.(i) <- q.fn.(j)

let push q ~fire ~seq ~own fn =
  if q.n = Array.length q.fire then grow q;
  let i = ref q.n in
  q.n <- q.n + 1;
  let continue_ = ref true in
  while !continue_ && !i > 0 do
    let p = (!i - 1) / 2 in
    let pf = q.fire.(p) in
    if fire < pf || (fire = pf && seq < q.seq.(p)) then begin
      move q ~src:p ~dst:!i;
      i := p
    end
    else continue_ := false
  done;
  q.fire.(!i) <- fire;
  q.seq.(!i) <- seq;
  q.own.(!i) <- own;
  q.fn.(!i) <- fn

exception Empty_queue

let pop_min q =
  if q.n = 0 then raise Empty_queue;
  let f = q.fn.(0) in
  q.popped_fire <- q.fire.(0);
  q.popped_seq <- q.seq.(0);
  q.popped_own <- q.own.(0);
  let last = q.n - 1 in
  q.n <- last;
  if last > 0 then begin
    (* sift the last element down from the root *)
    let lf = q.fire.(last) and ls = q.seq.(last) in
    let i = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      let l = (2 * !i) + 1 in
      if l >= last then continue_ := false
      else begin
        let r = l + 1 in
        let c =
          if r < last then
            let rf = q.fire.(r) and lf' = q.fire.(l) in
            if rf < lf' || (rf = lf' && q.seq.(r) < q.seq.(l)) then r else l
          else l
        in
        let cf = q.fire.(c) in
        if cf < lf || (cf = lf && q.seq.(c) < ls) then begin
          move q ~src:c ~dst:!i;
          i := c
        end
        else continue_ := false
      end
    done;
    move q ~src:last ~dst:!i
  end;
  (* drop the vacated slot's closure so the heap retains nothing *)
  q.fn.(last) <- nop;
  f

let popped_fire q = q.popped_fire

let popped_seq q = q.popped_seq

let popped_own q = q.popped_own

let clear q =
  Array.fill q.fn 0 q.n nop;
  q.n <- 0
