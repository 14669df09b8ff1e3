type t = {
  text : string;
  mutable pos : int;  (* start of the next line; past the end once done *)
  mutable line : int;
  mutable count : int;
  mutable offsets : int array;  (* token i spans offsets.(2i) .. offsets.(2i+1) - 1 *)
}

let create text = { text; pos = 0; line = 0; count = 0; offsets = Array.make 32 0 }

let push t a b =
  let k = 2 * t.count in
  if k = Array.length t.offsets then t.offsets <- Array.append t.offsets (Array.make k 0);
  Array.unsafe_set t.offsets k a;
  Array.unsafe_set t.offsets (k + 1) b;
  t.count <- t.count + 1

(* A byte's class: 0 in a token, 1 a blank, 2 the end of the line's
   tokens (a newline or a comment). *)
let classes =
  String.init 256 (fun c ->
      match Char.chr c with ' ' | '\t' | '\r' -> '\001' | '\n' | '#' -> '\002' | _ -> '\000')

let[@inline] class_at s i =
  Char.code (String.unsafe_get classes (Char.code (String.unsafe_get s i)))

let next t =
  let s = t.text and n = String.length t.text in
  t.pos <= n
  && begin
       t.line <- t.line + 1;
       t.count <- 0;
       (* [!i < n] bounds every read *)
       let i = ref t.pos and c = ref 1 in
       while !c <> 2 do
         while !i < n && class_at s !i = 1 do
           incr i
         done;
         c := if !i = n then 2 else class_at s !i;
         if !c = 0 then begin
           let a = !i in
           while !i < n && class_at s !i = 0 do
             incr i
           done;
           push t a !i
         end
       done;
       (* past the comment to the newline, or past the end *)
       while !i < n && String.unsafe_get s !i <> '\n' do
         incr i
       done;
       t.pos <- !i + 1;
       true
     end

let line t = t.line
let count t = t.count

let no_token () = invalid_arg "Line_scan: no such token"
let start t i = if i < 0 || i >= t.count then no_token () else Array.unsafe_get t.offsets (2 * i)
let stop t i =
  if i < 0 || i >= t.count then no_token () else Array.unsafe_get t.offsets ((2 * i) + 1)
let token t i = String.sub t.text (start t i) (stop t i - start t i)

(* a top-level loop: a local closure would allocate on every call *)
let rec equal_from text a s j =
  j = String.length s || (String.unsafe_get text (a + j) = s.[j] && equal_from text a s (j + 1))

let is t i s =
  let a = start t i in
  Array.unsafe_get t.offsets ((2 * i) + 1) - a = String.length s && equal_from t.text a s 0
