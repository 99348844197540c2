let cap n = max 16 (2 * n)

let reserve a n fill =
  if Array.length a >= cap n then a
  else begin
    let a' = Array.make (cap n) fill in
    Array.blit a 0 a' 0 (Array.length a);
    a'
  end

let grow a n fill = if n <= Array.length a then a else reserve a n fill

let reserve_bytes ?(width = 1) b n =
  if Bytes.length b >= width * cap n then b
  else begin
    let b' = Bytes.make (width * cap n) '\000' in
    Bytes.blit b 0 b' 0 (Bytes.length b);
    b'
  end

let grow_bytes ?(width = 1) b n = if width * n <= Bytes.length b then b else reserve_bytes ~width b n
