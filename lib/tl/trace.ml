(** Finite execution traces: a sequence of states sampled at a fixed period.

    The thesis's simulation states are 1 ms apart ("the time interval of one
    state"); [dt] carries that period so bounded-duration operators can
    convert seconds into numbers of states.

    Storage is columnar: one typed column per state variable (unboxed
    [floatarray] for numeric signals, packed bytes for booleans, interned
    ids for symbols), rather than one [State.t] map per tick. A 20-second
    vehicle run is then a handful of flat, pointer-free blobs — the GC never
    traverses it, [Marshal] is effectively a memcpy, and monitors can read
    one signal across all states without a single map lookup. [get] and the
    iterators materialize classic [State.t] rows on demand, so every
    consumer of the old row-oriented representation behaves identically. *)

(* A column's cells, one per state. The constructor is chosen canonically
   from the cell values alone (see [Builder]), so structurally equal traces
   have structurally equal — and therefore Marshal-equal — columns:
   - [FCol]  : every present cell is [Value.Float] (NaN included);
   - [ICol]  : every present cell is [Value.Int];
   - [BCol]  : every present cell is [Value.Bool], packed as 0/1 bytes;
   - [SCol]  : every present cell is [Value.Sym] with at most 256 distinct
               symbols; [values] is the intern table in first-occurrence
               order and [ids] one table index per state;
   - [VCol]  : anything else (mixed-type signals), stored exactly. *)
type col =
  | FCol of floatarray
  | ICol of int array
  | BCol of Bytes.t
  | SCol of { values : Value.t array; ids : Bytes.t }
  | VCol of Value.t array

type column = {
  name : string;
  col : col;
  presence : Bytes.t option;
      (** [None] = the variable is bound in every state; [Some p] = bound
          exactly where [p] has byte 1 (cells elsewhere are padding). *)
}

type t = { dt : float; len : int; cols : column array (* sorted by name *) }

let length tr = tr.len
let dt tr = tr.dt

(* Shared immediate-ish values so packed-column reads allocate nothing for
   booleans. *)
let vtrue = Value.Bool true
let vfalse = Value.Bool false

let cell_value col i =
  match col with
  | FCol a -> Value.Float (Float.Array.get a i)
  | ICol a -> Value.Int a.(i)
  | BCol b -> if Bytes.get b i = '\001' then vtrue else vfalse
  | SCol { values; ids } -> values.(Char.code (Bytes.get ids i))
  | VCol a -> a.(i)

let present c i =
  match c.presence with None -> true | Some p -> Bytes.get p i = '\001'

(* Binary search over the name-sorted column array. *)
let find_column tr name =
  let cols = tr.cols in
  let rec go lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      let c = String.compare name cols.(mid).name in
      if c = 0 then Some cols.(mid)
      else if c < 0 then go lo mid
      else go (mid + 1) hi
  in
  go 0 (Array.length cols)

let column tr name =
  match find_column tr name with
  | Some c -> Some (c.col, c.presence)
  | None -> None

let get tr i =
  if i < 0 || i >= tr.len then invalid_arg "index out of bounds";
  let bindings = ref [] in
  for k = Array.length tr.cols - 1 downto 0 do
    let c = tr.cols.(k) in
    if present c i then bindings := (c.name, cell_value c.col i) :: !bindings
  done;
  State.of_list !bindings

(** Wall-clock time of state [i] (state 0 is at time 0). *)
let time tr i = float_of_int i *. tr.dt

(** [duration_to_states ~dt d] — how many consecutive states span duration
    [d]: the smallest [k >= 1] with [k * dt >= d]. *)
let duration_to_states ~dt d =
  if d <= 0. then 1 else max 1 (int_of_float (Float.ceil ((d /. dt) -. 1e-9)))

(* ------------------------------------------------------------------ *)
(* Builder                                                              *)

module Builder = struct
  (* Growable typed stores. A column starts in the narrowest store its
     first value fits and is promoted to [GV] (exact [Value.t] cells) on
     the first type conflict, so [finish] emits the canonical column kind
     for the cells actually seen. *)
  type store =
    | GE  (* opened, no cell written yet *)
    | GF of floatarray
    | GI of int array
    | GB of Bytes.t
    | GS of {
        mutable gids : int array;  (* local id -> builder symbol id *)
        mutable nvalues : int;
        mutable local : int array;  (* builder symbol id -> local id + 1 *)
        ids : Bytes.t;
      }
    | GV of Value.t array

  (* Invariant: [pres] and a non-[GE] store always have the same length. *)
  type column = { cname : string; mutable store : store; mutable pres : Bytes.t }

  type b = {
    bdt : float;
    mutable rows : int;  (* the row being written *)
    mutable cap : int;
    mutable bcols : column list;  (* creation order; sorted at finish *)
    index : (string, column) Hashtbl.t;
    syms : (string, int) Hashtbl.t;  (* symbol intern table *)
    mutable sym_names : string array;
    mutable nsyms : int;
  }

  let create ?(hint = 1024) ~dt () =
    if dt <= 0. then invalid_arg "Trace.Builder.create: dt must be positive";
    {
      bdt = dt;
      rows = 0;
      cap = max 16 hint;
      bcols = [];
      index = Hashtbl.create 64;
      syms = Hashtbl.create 16;
      sym_names = Array.make 16 "";
      nsyms = 0;
    }

  let length b = b.rows

  let column b name =
    match Hashtbl.find_opt b.index name with
    | Some c -> c
    | None ->
        let c = { cname = name; store = GE; pres = Bytes.empty } in
        Hashtbl.add b.index name c;
        b.bcols <- c :: b.bcols;
        c

  let symbol b s =
    match Hashtbl.find_opt b.syms s with
    | Some id -> id
    | None ->
        let id = b.nsyms in
        if id >= Array.length b.sym_names then begin
          let a = Array.make (2 * id) "" in
          Array.blit b.sym_names 0 a 0 id;
          b.sym_names <- a
        end;
        b.sym_names.(id) <- s;
        b.nsyms <- id + 1;
        Hashtbl.add b.syms s id;
        id

  let sym_value b id = Value.Sym b.sym_names.(id)

  let grow_store cap = function
    | GE -> GE
    | GF a ->
        let a' = Float.Array.make cap 0. in
        Float.Array.blit a 0 a' 0 (Float.Array.length a);
        GF a'
    | GI a ->
        let a' = Array.make cap 0 in
        Array.blit a 0 a' 0 (Array.length a);
        GI a'
    | GB s ->
        let s' = Bytes.make cap '\000' in
        Bytes.blit s 0 s' 0 (Bytes.length s);
        GB s'
    | GS g ->
        let ids = Bytes.make cap '\000' in
        Bytes.blit g.ids 0 ids 0 (Bytes.length g.ids);
        GS { g with ids }
    | GV a ->
        let a' = Array.make cap vfalse in
        Array.blit a 0 a' 0 (Array.length a);
        GV a'

  (* Grow the store and presence bytes of [c] to the builder's capacity. *)
  let ensure b c =
    if Bytes.length c.pres < b.cap then begin
      let p = Bytes.make b.cap '\000' in
      Bytes.blit c.pres 0 p 0 (Bytes.length c.pres);
      c.pres <- p;
      c.store <- grow_store b.cap c.store
    end

  (* Rebuild the first [n] cells of a store as exact values — the promotion
     path when a column stops being monomorphic. Only present cells are ever
     read back, so reconstructing padding cells as typed zeros is sound. *)
  let promote b n = function
    | GE -> Array.make b.cap vfalse
    | GF a ->
        Array.init b.cap (fun i ->
            if i < n then Value.Float (Float.Array.get a i) else vfalse)
    | GI a -> Array.init b.cap (fun i -> if i < n then Value.Int a.(i) else vfalse)
    | GB s ->
        Array.init b.cap (fun i ->
            if i < n then if Bytes.get s i = '\001' then vtrue else vfalse
            else vfalse)
    | GS { gids; ids; _ } ->
        Array.init b.cap (fun i ->
            if i < n then sym_value b gids.(Char.code (Bytes.get ids i)) else vfalse)
    | GV a -> a

  (* The first cell of a column: a store of the value's own kind, padding
     (zeros, absent) before the current row. *)
  let fresh_store b row (v : Value.t) =
    let cap = b.cap in
    match v with
    | Value.Float f ->
        let a = Float.Array.make cap 0. in
        Float.Array.set a row f;
        GF a
    | Value.Int i ->
        let a = Array.make cap 0 in
        a.(row) <- i;
        GI a
    | Value.Bool bv ->
        let s = Bytes.make cap '\000' in
        if bv then Bytes.set s row '\001';
        GB s
    | Value.Sym s ->
        let id = symbol b s in
        let local = Array.make (max 8 (id + 1)) 0 in
        local.(id) <- 1;
        GS { gids = Array.make 8 id; nvalues = 1; local; ids = Bytes.make cap '\000' }

  (* The local id of builder symbol [id] in a symbol store, interning it
     on first sight; [-1] when the column's 256-entry table is full. *)
  let local_id (g : store) id =
    match g with
    | GS g ->
        if id < Array.length g.local && g.local.(id) > 0 then g.local.(id) - 1
        else if g.nvalues >= 256 then -1
        else begin
          if id >= Array.length g.local then begin
            let l = Array.make (max (id + 1) (2 * Array.length g.local)) 0 in
            Array.blit g.local 0 l 0 (Array.length g.local);
            g.local <- l
          end;
          let k = g.nvalues in
          if k >= Array.length g.gids then begin
            let a = Array.make (2 * k) 0 in
            Array.blit g.gids 0 a 0 k;
            g.gids <- a
          end;
          g.gids.(k) <- id;
          g.nvalues <- k + 1;
          g.local.(id) <- k + 1;
          k
        end
    | _ -> -1

  (* The general write: any value into any store, opening, interning and
     promoting as needed. *)
  let write b c (v : Value.t) =
    let row = b.rows in
    ensure b c;
    (match (c.store, v) with
    | GE, v -> c.store <- fresh_store b row v
    | GF a, Value.Float f -> Float.Array.set a row f
    | GI a, Value.Int i -> a.(row) <- i
    | GB s, Value.Bool bv -> Bytes.set s row (if bv then '\001' else '\000')
    | (GS g as st), Value.Sym s ->
        let k = local_id st (symbol b s) in
        if k >= 0 then Bytes.set g.ids row (Char.chr k)
        else begin
          (* intern table overflow: fall back to exact storage *)
          let a = promote b row st in
          a.(row) <- v;
          c.store <- GV a
        end
    | GV a, v -> a.(row) <- v
    | store, v ->
        let a = promote b row store in
        a.(row) <- v;
        c.store <- GV a);
    Bytes.set c.pres row '\001'

  (* Typed writes of the current row: an in-place store when the column's
     kind matches, the general path otherwise. *)
  let[@inline] float b c f =
    match c.store with
    | GF a when b.rows < Float.Array.length a ->
        Float.Array.unsafe_set a b.rows f;
        Bytes.unsafe_set c.pres b.rows '\001'
    | _ -> write b c (Value.Float f)

  let[@inline] int b c i =
    match c.store with
    | GI a when b.rows < Array.length a ->
        Array.unsafe_set a b.rows i;
        Bytes.unsafe_set c.pres b.rows '\001'
    | _ -> write b c (Value.Int i)

  let[@inline] bool b c v =
    match c.store with
    | GB s when b.rows < Bytes.length s ->
        Bytes.unsafe_set s b.rows (if v then '\001' else '\000');
        Bytes.unsafe_set c.pres b.rows '\001'
    | _ -> write b c (if v then vtrue else vfalse)

  let[@inline] sym b c id =
    match c.store with
    | GS g
      when b.rows < Bytes.length g.ids && id < Array.length g.local && g.local.(id) > 0 ->
        Bytes.unsafe_set g.ids b.rows (Char.unsafe_chr (g.local.(id) - 1));
        Bytes.unsafe_set c.pres b.rows '\001'
    | _ -> write b c (sym_value b id)

  let value b c (v : Value.t) =
    match v with
    | Value.Float f -> float b c f
    | Value.Int i -> int b c i
    | Value.Bool x -> bool b c x
    | Value.Sym s -> sym b c (symbol b s)

  let end_row b =
    b.rows <- b.rows + 1;
    if b.rows >= b.cap then b.cap <- b.cap * 2

  let add_slots b cols ~tags ~floats ~ints ~symbols =
    for s = 0 to Array.length cols - 1 do
      match Bytes.unsafe_get tags s with
      | '\001' -> float b cols.(s) (Float.Array.unsafe_get floats s)
      | '\002' -> int b cols.(s) (Array.unsafe_get ints s)
      | '\003' -> bool b cols.(s) (Array.unsafe_get ints s <> 0)
      | '\004' -> sym b cols.(s) symbols.(Array.unsafe_get ints s)
      | _ -> ()
    done;
    end_row b

  let add b (st : State.t) =
    State.iter (fun name v -> value b (column b name) v) st;
    (* Columns absent from this state keep pad cells; their presence byte
       stays 0 (the pres array is grown lazily on the next write, and
       [finish] treats missing tail bytes as absent). *)
    end_row b

  (* Mixed-type cells are rebuilt canonically — a fresh block per cell,
     the two shared booleans, one string per symbol — so that how the
     cells were produced (a held value's block shared across states, say)
     never shows in the marshalled bytes. *)
  let canonical b box (v : Value.t) =
    match v with
    | Value.Float f ->
        (* through an unboxed store, so that the float is boxed afresh too *)
        Float.Array.set box 0 f;
        Value.Float (Float.Array.get box 0)
    | Value.Int i -> Value.Int i
    | Value.Bool x -> if x then vtrue else vfalse
    | Value.Sym s -> sym_value b (symbol b s)

  let finish b : t =
    let len = b.rows in
    (* Columns that stopped being written early may hold stores shorter
       than the trace; grow every store to at least [len] so trimming is
       total (the grown tail is padding under absent presence bytes). *)
    b.cap <- max b.cap len;
    List.iter (fun c -> ensure b c) b.bcols;
    let trim_pres c =
      (* All-present columns collapse to [None]; otherwise emit the first
         [len] presence bytes (absent tail bytes included). *)
      let p = Bytes.sub c.pres 0 len in
      let all = ref true in
      for i = 0 to len - 1 do
        if Bytes.unsafe_get p i <> '\001' then all := false
      done;
      if !all then None else Some p
    in
    let trim_col c =
      match c.store with
      | GE -> assert false
      | GF a -> FCol (Float.Array.sub a 0 len)
      | GI a -> ICol (Array.sub a 0 len)
      | GB s -> BCol (Bytes.sub s 0 len)
      | GS g ->
          SCol
            {
              values = Array.init g.nvalues (fun k -> sym_value b g.gids.(k));
              ids = Bytes.sub g.ids 0 len;
            }
      | GV a ->
          let box = Float.Array.make 1 0. in
          VCol
            (Array.init len (fun i ->
                 if Bytes.get c.pres i = '\001' then canonical b box a.(i) else vfalse))
    in
    let cols =
      List.filter (fun c -> match c.store with GE -> false | _ -> true) b.bcols
      |> List.map (fun c -> { name = c.cname; col = trim_col c; presence = trim_pres c })
      |> List.sort (fun a b -> String.compare a.name b.name)
      |> Array.of_list
    in
    { dt = b.bdt; len; cols }
end

(* ------------------------------------------------------------------ *)
(* Row-oriented constructors, over the builder                          *)

let of_seq ~dt ~hint states =
  let b = Builder.create ~hint ~dt () in
  Seq.iter (Builder.add b) states;
  Builder.finish b

let make ~dt states =
  if dt <= 0. then invalid_arg "Trace.make: dt must be positive";
  of_seq ~dt ~hint:(List.length states) (List.to_seq states)

let of_array ~dt states =
  if dt <= 0. then invalid_arg "Trace.of_array: dt must be positive";
  of_seq ~dt ~hint:(Array.length states) (Array.to_seq states)

(** [init ~dt n f] builds a trace of [n] states where state [i] is [f i]. *)
let init ~dt n f =
  if dt <= 0. then invalid_arg "Trace.init: dt must be positive";
  of_seq ~dt ~hint:n (Seq.init n f)

(* ------------------------------------------------------------------ *)
(* Signals and iteration                                                *)

(** Extract a signal as a float series, [(time, value)] pairs. *)
let signal tr name =
  match find_column tr name with
  | None -> raise (State.Unbound name)
  | Some c ->
      List.init tr.len (fun i ->
          if present c i then (time tr i, Value.to_float (cell_value c.col i))
          else raise (State.Unbound name))

(** Extract a boolean signal as a [(time, bool)] series. *)
let bool_signal tr name =
  match find_column tr name with
  | None -> raise (State.Unbound name)
  | Some c ->
      List.init tr.len (fun i ->
          if present c i then (time tr i, Value.to_bool (cell_value c.col i))
          else raise (State.Unbound name))

let fold f acc tr =
  let acc = ref acc in
  for i = 0 to tr.len - 1 do
    acc := f !acc (get tr i)
  done;
  !acc

let iteri f tr =
  for i = 0 to tr.len - 1 do
    f i (get tr i)
  done

(* ------------------------------------------------------------------ *)

(** Rough in-memory footprint of the packed representation, in bytes —
    the accounting behind the [trace_store.bytes] counter. *)
let approx_bytes tr =
  Array.fold_left
    (fun acc c ->
      let cells =
        match c.col with
        | FCol a -> 8 * Float.Array.length a
        | ICol a -> 8 * Array.length a
        | BCol s -> Bytes.length s
        | SCol { values; ids } -> Bytes.length ids + (32 * Array.length values)
        | VCol a -> 24 * Array.length a
      in
      acc + cells + String.length c.name + 16
      + (match c.presence with None -> 0 | Some p -> Bytes.length p))
    64 tr.cols
