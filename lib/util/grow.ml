let array a used need def =
  let len = Array.length a in
  if used + need <= len then a
  else begin
    let a' = Array.make (max (used + need) (2 * max 1 len)) def in
    Array.blit a 0 a' 0 used;
    a'
  end

let bits b n =
  let bytes_needed = (n + 7) / 8 in
  if Bytes.length b >= bytes_needed then b
  else begin
    let b' = Bytes.make (max bytes_needed (2 * max 1 (Bytes.length b))) '\000' in
    Bytes.blit b 0 b' 0 (Bytes.length b);
    b'
  end
