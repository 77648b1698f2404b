(** SRV1 wire protocol: message set and frame codec (see wire.mli). *)

let proto_version = 2

type spec = {
  seed : int;
  faults : string list;
  scenarios : int list;
  window : float option;
  retries : int;
}

type reject_reason =
  | Queue_full
  | Over_quota
  | Draining
  | Bad_spec of string

type request =
  | Hello of { proto : int; client : string }
  | Submit of { spec : spec; deadline_s : float option }
  | Cancel of { ticket : int }
  | Stats
  | Drain

type response =
  | Welcome of { proto : int; server : string }
  | Accepted of { ticket : int; position : int; cells : int }
  | Rejected of {
      reason : reject_reason;
      retryable : bool;
      retry_after_s : float;
    }
  | Progress of { ticket : int; completed : int; total : int }
  | Result of { ticket : int; csv : string; durable : bool }
  | Failed of { ticket : int; reason : string }
  | Stats_reply of { json : string }
  | Draining_ack of { settled : int; checkpointed : int }

(* Same record shape as the scenario journal, with two deliberate
   differences: the magic ("SRV1") keeps a journal file and a service
   socket from ever decoding each other's streams, and payloads marshal
   WITHOUT [Closures] — the wire carries pure data only, so a client
   binary never needs to share code with the server. *)
module Frame = struct
  let magic = "SRV1"
  let header_len = 12

  (* A bit-flipped length field must surface as corruption, not as a
     multi-gigabyte allocation. *)
  let max_payload = 1 lsl 28

  type buf = { mutable data : Bytes.t; mutable len : int }

  let create () = { data = Bytes.create 65536; len = 0 }

  let feed b src n =
    if b.len + n > Bytes.length b.data then begin
      let cap = ref (Bytes.length b.data) in
      while b.len + n > !cap do
        cap := !cap * 2
      done;
      let data = Bytes.create !cap in
      Bytes.blit b.data 0 data 0 b.len;
      b.data <- data
    end;
    Bytes.blit src 0 b.data b.len n;
    b.len <- b.len + n

  let consume b n =
    Bytes.blit b.data n b.data 0 (b.len - n);
    b.len <- b.len - n

  let encode v =
    let payload = Marshal.to_string v [] in
    if String.length payload > max_payload then
      invalid_arg "Serve.Wire.Frame.encode: payload too large";
    let b = Buffer.create (header_len + String.length payload) in
    Buffer.add_string b magic;
    Buffer.add_int32_le b (Int32.of_int (String.length payload));
    Buffer.add_int32_le b (Exec.Crc32.digest payload);
    Buffer.add_string b payload;
    Buffer.contents b

  let decode b =
    if b.len < header_len then `Need_more
    else if Bytes.sub_string b.data 0 4 <> magic then `Corrupt
    else
      let len = Int32.to_int (Bytes.get_int32_le b.data 4) in
      let crc = Bytes.get_int32_le b.data 8 in
      if len < 0 || len > max_payload then `Corrupt
      else if b.len < header_len + len then `Need_more
      else begin
        let payload = Bytes.sub_string b.data header_len len in
        consume b (header_len + len);
        if Exec.Crc32.digest payload <> crc then `Corrupt
        else
          match Marshal.from_string payload 0 with
          | v -> `Frame v
          | exception _ -> `Corrupt
      end

  let write_all fd s =
    let b = Bytes.unsafe_of_string s in
    let n = String.length s in
    let rec go off =
      if off < n then
        match Unix.write fd b off (n - off) with
        | written -> go (off + written)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
    in
    go 0

  let write fd v = write_all fd (encode v)
end
