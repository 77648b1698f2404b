(** The slot-indexed tick state of the simulation kernel.

    Every signal name is resolved to an integer slot once, while the world
    is assembled. The state of one tick is a buffer: a tag per slot
    (absent, float, int, bool or symbol), an unboxed [floatarray] for
    float cells and an [int array] for int, bool (0/1) and symbol cells
    (ids of an intern table). A frame holds two buffers: [prev], the
    snapshot every component reads, and [next], the snapshot being
    computed. Each tick starts with [next] a copy of [prev], so unwritten
    variables hold their value, and ends by swapping the two. *)

open Tl

let t_absent = '\000'
let t_float = '\001'
let t_int = '\002'
let t_bool = '\003'
let t_sym = '\004'

type buf = { tags : Bytes.t; f : floatarray; i : int array }

type binder = {
  bdt : float;
  slots : (string, int) Hashtbl.t;
  mutable names : string array;
  mutable nslots : int;
  syms : (string, int) Hashtbl.t;
  mutable sym_names : string array;
  mutable nsyms : int;
}

type 'a slot = int
type symbol = int

type t = {
  layout : binder;
  mutable prev : buf;
  mutable next : buf;
  mutable tick : int;  (* the state being computed is at [tick * dt] *)
}

(* ------------------------------------------------------------------ *)
(* Binding                                                              *)

let push names n x =
  let names =
    if n < Array.length names then names
    else begin
      let a = Array.make (max 16 (2 * n)) "" in
      Array.blit names 0 a 0 n;
      a
    end
  in
  names.(n) <- x;
  names

let binder ~dt =
  {
    bdt = dt;
    slots = Hashtbl.create 64;
    names = [||];
    nslots = 0;
    syms = Hashtbl.create 16;
    sym_names = [||];
    nsyms = 0;
  }

module Bind = struct
  let lookup b name = Hashtbl.find_opt b.slots name

  let slot b name =
    match Hashtbl.find_opt b.slots name with
    | Some s -> s
    | None ->
        let s = b.nslots in
        b.names <- push b.names s name;
        b.nslots <- s + 1;
        Hashtbl.add b.slots name s;
        s

  let float = slot
  let bool = slot
  let int = slot
  let sym = slot
  let value = slot

  let symbol b name =
    match Hashtbl.find_opt b.syms name with
    | Some id -> id
    | None ->
        let id = b.nsyms in
        b.sym_names <- push b.sym_names id name;
        b.nsyms <- id + 1;
        Hashtbl.add b.syms name id;
        id

  let all b = List.init b.nslots (fun s -> (b.names.(s), s))
  let dt b = b.bdt
end

(* ------------------------------------------------------------------ *)
(* Frames                                                               *)

let buffer n =
  { tags = Bytes.make n t_absent; f = Float.Array.make n 0.; i = Array.make n 0 }

let create b =
  let n = b.nslots in
  { layout = b; prev = buffer n; next = buffer n; tick = 0 }

let tick fr = fr.tick
let dt fr = fr.layout.bdt
let now fr = float_of_int fr.tick *. fr.layout.bdt

let begin_tick fr tick =
  fr.tick <- tick;
  let p = fr.prev and n = fr.next in
  Bytes.blit p.tags 0 n.tags 0 (Bytes.length p.tags);
  Float.Array.blit p.f 0 n.f 0 (Float.Array.length p.f);
  Array.blit p.i 0 n.i 0 (Array.length p.i)

let swap fr =
  let p = fr.prev in
  fr.prev <- fr.next;
  fr.next <- p

let clear_next fr = Bytes.fill fr.next.tags 0 (Bytes.length fr.next.tags) t_absent

(* ------------------------------------------------------------------ *)
(* Cells as values                                                      *)

let cell_value layout buf s : Value.t option =
  let c = Bytes.get buf.tags s in
  if c = t_float then Some (Value.Float (Float.Array.get buf.f s))
  else if c = t_int then Some (Value.Int buf.i.(s))
  else if c = t_bool then Some (Value.Bool (buf.i.(s) <> 0))
  else if c = t_sym then Some (Value.Sym layout.sym_names.(buf.i.(s)))
  else None

let unbound fr s = raise (State.Unbound fr.layout.names.(s))

let value fr s =
  match cell_value fr.layout fr.prev s with Some v -> v | None -> unbound fr s

let peek fr s = cell_value fr.layout fr.next s

(* ------------------------------------------------------------------ *)
(* Typed reads of [prev]. The slow paths reproduce [State.float],
   [State.bool] and [State.sym] exactly, exceptions included. *)

let float_slow fr s =
  let p = fr.prev in
  let c = Bytes.get p.tags s in
  if c = t_int then float_of_int p.i.(s) else Value.to_float (value fr s)

let[@inline] float fr s =
  let p = fr.prev in
  if Bytes.unsafe_get p.tags s = t_float then Float.Array.unsafe_get p.f s
  else float_slow fr s

(* The float store of [prev] once slot [s] is known to hold a number: an
   int cell's value is copied into the float store (where its payload is
   otherwise unused). *)
let floats fr s =
  let p = fr.prev in
  let c = Bytes.unsafe_get p.tags s in
  if c = t_float then p.f
  else begin
    Float.Array.set p.f s (float_slow fr s);
    p.f
  end

let set_floats fr s =
  let n = fr.next in
  Bytes.unsafe_set n.tags s t_float;
  n.f

let bool_slow fr s = Value.to_bool (value fr s)

let[@inline] bool fr s =
  let p = fr.prev in
  if Bytes.unsafe_get p.tags s = t_bool then Array.unsafe_get p.i s <> 0
  else bool_slow fr s

let sym_slow fr s =
  match value fr s with
  | Value.Sym x -> Bind.symbol fr.layout x
  | v ->
      Value.type_error "variable %s: expected a symbol, got %a" fr.layout.names.(s)
        Value.pp v

let[@inline] sym fr s =
  let p = fr.prev in
  if Bytes.unsafe_get p.tags s = t_sym then Array.unsafe_get p.i s else sym_slow fr s

let int_or fr s default =
  let p = fr.prev in
  let c = Bytes.get p.tags s in
  if c = t_int then p.i.(s) else if c = t_absent then unbound fr s else default

(* ------------------------------------------------------------------ *)
(* Writes of [next]                                                     *)

let[@inline] set_float fr s x =
  let n = fr.next in
  Bytes.unsafe_set n.tags s t_float;
  Float.Array.unsafe_set n.f s x

let[@inline] set_bool fr s x =
  let n = fr.next in
  Bytes.unsafe_set n.tags s t_bool;
  Array.unsafe_set n.i s (if x then 1 else 0)

let[@inline] set_sym fr s id =
  let n = fr.next in
  Bytes.unsafe_set n.tags s t_sym;
  Array.unsafe_set n.i s id

let[@inline] set_int fr s x =
  let n = fr.next in
  Bytes.unsafe_set n.tags s t_int;
  Array.unsafe_set n.i s x

let set_value fr s (v : Value.t) =
  match v with
  | Value.Float x -> set_float fr s x
  | Value.Int x -> set_int fr s x
  | Value.Bool x -> set_bool fr s x
  | Value.Sym x -> set_sym fr s (Bind.symbol fr.layout x)

(* ------------------------------------------------------------------ *)
(* Cells: one slot's content, copied out of and back into [next]        *)

module Cell = struct
  type kind = Absent | Float | Int | Bool | Sym
  type t = { mutable tag : char; mutable i : int; f : floatarray }

  let make () = { tag = t_absent; i = 0; f = Float.Array.make 1 0. }

  let of_value b (v : Value.t) =
    let c = make () in
    (match v with
    | Value.Float x ->
        c.tag <- t_float;
        Float.Array.set c.f 0 x
    | Value.Int x ->
        c.tag <- t_int;
        c.i <- x
    | Value.Bool x ->
        c.tag <- t_bool;
        c.i <- (if x then 1 else 0)
    | Value.Sym x ->
        c.tag <- t_sym;
        c.i <- Bind.symbol b x);
    c

  let kind c =
    let t = c.tag in
    if t = t_float then Float
    else if t = t_int then Int
    else if t = t_bool then Bool
    else if t = t_sym then Sym
    else Absent

  let float c = Float.Array.unsafe_get c.f 0

  let set_float c x =
    c.tag <- t_float;
    Float.Array.unsafe_set c.f 0 x

  let int c = c.i

  let blit ~src ~dst =
    dst.tag <- src.tag;
    dst.i <- src.i;
    Float.Array.unsafe_set dst.f 0 (Float.Array.unsafe_get src.f 0)
end

let load fr s (c : Cell.t) =
  let n = fr.next in
  c.tag <- Bytes.get n.tags s;
  c.i <- n.i.(s);
  Float.Array.set c.f 0 (Float.Array.get n.f s)

let store fr s (c : Cell.t) =
  let n = fr.next in
  Bytes.set n.tags s c.tag;
  n.i.(s) <- c.i;
  Float.Array.set n.f s (Float.Array.get c.f 0)

(* ------------------------------------------------------------------ *)
(* Recording [prev] into trace columns                                  *)

type recorder = {
  rb : Trace.Builder.b;
  cols : Trace.Builder.column array;
  mutable smap : int array;  (* intern id -> builder symbol id *)
}

let recorder fr ~hint =
  let rb = Trace.Builder.create ~hint ~dt:(dt fr) () in
  let b = fr.layout in
  {
    rb;
    cols = Array.init b.nslots (fun s -> Trace.Builder.column rb b.names.(s));
    smap = [||];
  }

(* One trace row from [prev]: each present slot's cell goes straight into
   its column, with no name lookup. *)
let record r fr =
  let b = fr.layout in
  let mapped = Array.length r.smap in
  if mapped < b.nsyms then
    r.smap <-
      Array.init b.nsyms (fun id ->
          if id < mapped then r.smap.(id)
          else Trace.Builder.symbol r.rb b.sym_names.(id));
  let p = fr.prev in
  Trace.Builder.add_slots r.rb r.cols ~tags:p.tags ~floats:p.f ~ints:p.i ~symbols:r.smap

let finish r = Trace.Builder.finish r.rb
