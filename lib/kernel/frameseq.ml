(* Frames [arr.(off)] .. [arr.(off + len - 1)].  Arrays are never
   written after a window over them exists, so windows can share. *)
type t = { arr : int array; off : int; len : int }

let empty = { arr = [||]; off = 0; len = 0 }
let of_array arr = { arr; off = 0; len = Array.length arr }
let of_list l = of_array (Array.of_list l)
let length s = s.len

let to_list s =
  let rec go i acc = if i < s.off then acc else go (i - 1) (s.arr.(i) :: acc) in
  go (s.off + s.len - 1) []

let split_at n s =
  if n < 0 || n > s.len then invalid_arg "Frameseq.split_at";
  ({ s with len = n }, { s with off = s.off + n; len = s.len - n })

let append a b =
  if a.len = 0 then b
  else if b.len = 0 then a
  else if a.arr == b.arr && a.off + a.len = b.off then { a with len = a.len + b.len }
  else begin
    let arr = Array.make (a.len + b.len) 0 in
    Array.blit a.arr a.off arr 0 a.len;
    Array.blit b.arr b.off arr a.len b.len;
    of_array arr
  end

let iter f s =
  for i = s.off to s.off + s.len - 1 do
    f s.arr.(i)
  done

let fold_left f init s =
  let acc = ref init in
  iter (fun x -> acc := f !acc x) s;
  !acc

let exists p s =
  let rec go i = i < s.off + s.len && (p s.arr.(i) || go (i + 1)) in
  go s.off

let partition p s =
  (* Mark first, then fill two exactly-sized arrays: a pool keeps only
     its own frames alive, and no oversized scratch arrays churn the
     major heap (trimming copies made boot measurably slower). *)
  let keep = Bytes.make s.len '\000' in
  let n_yes = ref 0 in
  for i = 0 to s.len - 1 do
    if p s.arr.(s.off + i) then begin
      Bytes.set keep i '\001';
      incr n_yes
    end
  done;
  let yes = Array.make !n_yes 0 and no = Array.make (s.len - !n_yes) 0 in
  let y = ref 0 and n = ref 0 in
  for i = 0 to s.len - 1 do
    let f = s.arr.(s.off + i) in
    if Bytes.get keep i = '\001' then begin
      yes.(!y) <- f;
      incr y
    end
    else begin
      no.(!n) <- f;
      incr n
    end
  done;
  (of_array yes, of_array no)
