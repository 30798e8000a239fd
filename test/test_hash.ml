let hex = Printf.sprintf "%Lx"

(* Published XXH64 test vectors. *)
let test_xxh64_empty () =
  Alcotest.(check string) "xxh64(\"\")" "ef46db3751d8e999"
    (hex (Ftr_hash.Xxh64.hash (Bytes.of_string "")))

let test_xxh64_a () =
  Alcotest.(check string) "xxh64(\"a\")" "d24ec4f1a98c6e5b"
    (hex (Ftr_hash.Xxh64.hash (Bytes.of_string "a")))

let test_xxh64_abc () =
  Alcotest.(check string) "xxh64(\"abc\")" "44bc2cf5ad770999"
    (hex (Ftr_hash.Xxh64.hash (Bytes.of_string "abc")))

(* Regression pins captured from the reference implementation before its
   inner loops were rewritten: digests of [pattern len] at seeds 0 and 1.
   Lengths 0-100 walk every tail branch (8-, 4- and 1-byte steps) on both
   sides of the 32-byte stripe threshold; 127-129 straddle a stripe
   boundary; 4096 and 16384 are the two page sizes. *)
let pattern n = Bytes.init n (fun i -> Char.chr (((i * 131) + 7) land 0xFF))

let pins =
  [
    (0, 0xef46db3751d8e999L, 0xd5afba1336a3be4bL);
    (1, 0xa96c7f0ce858bbb7L, 0x0766883a0a47a96aL);
    (2, 0xc22c6a70ad56bba6L, 0x7c6cc620a3af2705L);
    (3, 0xbed43740ee6332bbL, 0x95ba63f005e6e6caL);
    (4, 0xfa212ae44b3bb23dL, 0x319607b5ca9d59d4L);
    (5, 0xd339dcc9ac8e6776L, 0xe07f25fb3a8e5de9L);
    (6, 0x71cabdc85da7ffa0L, 0x0d9af9b31282d277L);
    (7, 0x2744460dd675d2c0L, 0x0047cdce49d4bc99L);
    (8, 0x994b676b71ce94ddL, 0xc14d78e582fe5026L);
    (9, 0x572b84c18b983af8L, 0xdb001655fe3a4b7aL);
    (10, 0x08283fd40ee4f8c9L, 0x2836514074733468L);
    (11, 0x97f078da7a1a590cL, 0x62c2478e2beb60a5L);
    (12, 0xb92f588ce720786eL, 0x23eb959821a629a9L);
    (13, 0xdadc8a6255b4829bL, 0x259671871de445f2L);
    (14, 0x574269377227d80aL, 0x87c802dbb17a6363L);
    (15, 0x09e6451ed2ff8b1dL, 0x40a4206cc723cce4L);
    (16, 0x94ad0095e72b24d5L, 0x0c9b8f12f2ae6c76L);
    (17, 0x1464f2eff23b5fe1L, 0x418df2ecde29d078L);
    (18, 0x712c39f6d1ed935eL, 0xf5f83c906f070d1fL);
    (19, 0x83ef9c758393e89dL, 0x5bbe88610e6d969aL);
    (20, 0x67822fa80e0c8933L, 0xea15f4c173abd1d5L);
    (21, 0xfa6de19e99ff8d43L, 0xe6edce78ed3a250aL);
    (22, 0xa8d0ae04d79885f2L, 0x08c27fad7be08cf8L);
    (23, 0xcf65b69586b05fabL, 0x659cee761195b68aL);
    (24, 0x0a3b0194f3afe0b8L, 0x7bc87e813be3b7c8L);
    (25, 0xe0fd072fff811c86L, 0x8b2705f6773a1beeL);
    (26, 0xc4f7372a7fb8f247L, 0xf7c5ecc5e8befda5L);
    (27, 0xfee26cac05aeecf0L, 0xf3e3f3c033c10dfeL);
    (28, 0x01a6f3d224fa7d3bL, 0xd26df1663943f44cL);
    (29, 0x161a3bc98afcf092L, 0x619101ee2b316452L);
    (30, 0x3f8796d7bfaaaa08L, 0xb2d7e2e3ae8b7c23L);
    (31, 0x6711d55e306b5d8fL, 0xe811d10b03941e82L);
    (32, 0x07f7b8e3bc5d6e25L, 0xdf4f0f6ea84ebbcaL);
    (33, 0x09f85eeb4e1cbe9fL, 0x489f1772049e476cL);
    (34, 0x35284e7f91dd1ae5L, 0x2373a61cdbbfe11dL);
    (35, 0x25cc31e4544bc8c9L, 0xf09941b1088ecc8aL);
    (36, 0xe7ac625222f2b655L, 0xf98561c7d7156bb9L);
    (37, 0x1d8c3a2215085739L, 0x34aba417598832e7L);
    (38, 0x1fb3064ed36c675fL, 0x57a44530cdde8ffbL);
    (39, 0xb13c137a0fb701c3L, 0xe14770f2361b5307L);
    (40, 0xd25150177ba46490L, 0x9b1fd1ec1db110c1L);
    (41, 0x3ad8bb2779d9285eL, 0xf4e87aa17bae9412L);
    (42, 0xfe4ddab6e3d75ddcL, 0x164b94de116d04a5L);
    (43, 0x9d340603aa03cc62L, 0x482442b5c45fcfc6L);
    (44, 0xd02b2028c27a5329L, 0xea70fdb66adda7beL);
    (45, 0xff59426b0066066bL, 0xedd33d7ef1eafb7dL);
    (46, 0x713a114207f600e2L, 0x2546490b2e265cd9L);
    (47, 0x79bd9d6dd8c15570L, 0x50d46fc41711a14aL);
    (48, 0x2947de5e3a6afeceL, 0xb101191636a893efL);
    (49, 0x43f1e784039912d3L, 0xf0dbb854d2aaffb9L);
    (50, 0x072fa9968401e9c7L, 0xe0f2003cfe5335d4L);
    (51, 0xc3c4ff0d8f66e206L, 0x3d24a8fea857b300L);
    (52, 0x0efbc3939fa05814L, 0xf9e97b0b9bd98310L);
    (53, 0x42be842d0902d7a7L, 0xe8e2064784be2d5dL);
    (54, 0x8a78b907c424dc46L, 0xd64947c8bea69d17L);
    (55, 0x8f8dc5b07f6d48edL, 0x1fbc90668648baceL);
    (56, 0xa2acf5b431db2e52L, 0x56571818c8244b16L);
    (57, 0x403200f5d0354116L, 0x8d4a3c811f7421f3L);
    (58, 0xc326a3d65678339bL, 0x7f443b76619a0c91L);
    (59, 0xa53b8e5bc9ff65a4L, 0x072f38cc703d87e7L);
    (60, 0x4cce586d8aca19e5L, 0x715729a9eaa4c91cL);
    (61, 0xbd3bd33486af6dc6L, 0x9b1ab2d01a6abc9aL);
    (62, 0x4149dd403b20a2dcL, 0xaee51a787fbc7497L);
    (63, 0xb7c9968c066cb6a5L, 0xbe65bc64322f219bL);
    (64, 0x50d4159a0411632eL, 0x8ea281ce694f574dL);
    (65, 0xd277176bff863efcL, 0x1b26ddaa63626478L);
    (66, 0x578ba93daaaa4333L, 0x54061f724cf94b16L);
    (67, 0x5c44ab49f377e73fL, 0x0d099dbca44002cfL);
    (68, 0x0074fd38e968c15bL, 0xbaeff9c7742231c3L);
    (69, 0xdd2aa690f53212c8L, 0x048a5bdd9b90ae5aL);
    (70, 0xa4b1256e6fd1d806L, 0xa81e322add195b03L);
    (71, 0x363a593dc9d738d1L, 0xfb166bf2c85cd64aL);
    (72, 0xcd82801d226eb2a5L, 0x205cefba084d4cd0L);
    (73, 0x5d19a4c3f67b2beaL, 0x1f04650804eedb9fL);
    (74, 0xbb7db43ea46e9a29L, 0x3da326e82962d77fL);
    (75, 0xd608a44e07fe8624L, 0x511aaacfcc4b426aL);
    (76, 0x869e11664e92c3b4L, 0xe85496a0e50128c0L);
    (77, 0x162ce6431a7eda2aL, 0xf08233efdac74eb7L);
    (78, 0xf3cb7538a89612bbL, 0xd4bc6fee76ee9698L);
    (79, 0xc3f3dc0bf60fd094L, 0x8f8129c04dc56599L);
    (80, 0x16538439a19ab93eL, 0xacd36355fc91d3a5L);
    (81, 0x71bf4a997e4bc698L, 0x788924bd1a20a2e8L);
    (82, 0x81f5f158a1769c15L, 0xb59506520f6a1dc3L);
    (83, 0x01f5909a472fea86L, 0x59ece89c49daf32aL);
    (84, 0x6187bf0bf8dfa176L, 0x0ffae5bd64052d4dL);
    (85, 0x411b4022bb181b45L, 0xf9ace306a0616d7cL);
    (86, 0x8eb62f30a8fa66a5L, 0x7d6c931de34facdcL);
    (87, 0xf4b43a97d47f5f98L, 0xd2b592cfb8f3da23L);
    (88, 0x91b6179102c221c2L, 0x4066b9033349c00bL);
    (89, 0xe1a6e5a7b8596fddL, 0xae141add980a4d81L);
    (90, 0xbda467ab983b5874L, 0x57217780961b2d95L);
    (91, 0x81082eee7357b6b0L, 0x2c2ddb83698db57bL);
    (92, 0xf8f1612fd1c10a43L, 0xbf06fc1592483591L);
    (93, 0x44b5dc960d90d5bdL, 0xc0bc78453fe97ec7L);
    (94, 0x64904fdd7296cc2eL, 0xe0d45b477f8bf09eL);
    (95, 0x928c35b989d3c594L, 0x9e0488742c00c5bcL);
    (96, 0x18c8f362eb735341L, 0x8ef95849002329ddL);
    (97, 0x7683defa1456dab5L, 0x81fb2cac0a1d5e0cL);
    (98, 0xa4d9f00e9f94203cL, 0xb06ea2656adee344L);
    (99, 0x285a4a54a4a84ab4L, 0xa71b9bde10c52c0eL);
    (100, 0x9ddada11d3dc2d8fL, 0xe6a0d25e6e0a7f2aL);
    (127, 0x54cf771b5423f6a7L, 0xa50c3bce4bcb608aL);
    (128, 0x0430e433b792e757L, 0x57181f6acf7ee3f7L);
    (129, 0x1f9708e5a00618faL, 0x863c60eaa305c372L);
    (4096, 0xcf05adf75aca30cfL, 0x36ecdcfceab58f91L);
    (16384, 0x29478ad45faf911bL, 0xe187db93df2e3453L);
  ]

let test_xxh64_pins () =
  List.iter
    (fun (len, d0, d1) ->
      let b = pattern len in
      Alcotest.(check int64) (Printf.sprintf "len %d seed 0" len) d0
        (Ftr_hash.Xxh64.hash ~seed:0L b);
      Alcotest.(check int64) (Printf.sprintf "len %d seed 1" len) d1
        (Ftr_hash.Xxh64.hash ~seed:1L b);
      (* The same bytes at an odd offset inside a larger buffer. *)
      let padded = Bytes.make (len + 13) '\xAA' in
      Bytes.blit b 0 padded 5 len;
      Alcotest.(check int64) (Printf.sprintf "len %d hash_sub" len) d1
        (Ftr_hash.Xxh64.hash_sub ~seed:1L padded ~pos:5 ~len))
    pins

let test_xxh64_seeded_differs () =
  let b = Bytes.of_string "hello, world" in
  Alcotest.(check bool) "seed changes digest" true
    (Ftr_hash.Xxh64.hash ~seed:0L b <> Ftr_hash.Xxh64.hash ~seed:1L b)

let test_xxh64_long_input_stable () =
  (* Longer than one 32-byte stripe; pins the wide-input code path. *)
  let b = Bytes.init 1000 (fun i -> Char.chr (i land 0xFF)) in
  let h1 = Ftr_hash.Xxh64.hash b in
  let h2 = Ftr_hash.Xxh64.hash (Bytes.copy b) in
  Alcotest.(check int64) "pure function" h1 h2;
  Bytes.set b 500 'X';
  Alcotest.(check bool) "sensitive to one byte" true
    (Ftr_hash.Xxh64.hash b <> h1)

let test_xxh64_sub_matches_whole () =
  let b = Bytes.of_string "0123456789abcdef0123456789abcdef0123456789" in
  let whole = Ftr_hash.Xxh64.hash (Bytes.sub b 5 20) in
  let sub = Ftr_hash.Xxh64.hash_sub b ~pos:5 ~len:20 in
  Alcotest.(check int64) "hash_sub consistent" whole sub

(* The lane loads are unchecked, so the one range check per call must
   reject every bad span, including one whose [pos + len] overflows. *)
let test_xxh64_sub_invalid () =
  let b = Bytes.create 10 in
  let rejects name f =
    match f () with
    | () -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  List.iter
    (fun (pos, len) ->
      let name = Printf.sprintf "pos %d len %d" pos len in
      rejects ("hash_sub " ^ name) (fun () ->
          ignore (Ftr_hash.Xxh64.hash_sub b ~pos ~len));
      rejects ("update " ^ name) (fun () ->
          Ftr_hash.Xxh64.update (Ftr_hash.Xxh64.init ()) b ~pos ~len))
    [ (5, 6); (-1, 2); (0, -1); (5, max_int); (11, 0) ]

let test_streaming_matches_oneshot () =
  let b = Bytes.init 777 (fun i -> Char.chr ((i * 7) land 0xFF)) in
  let st = Ftr_hash.Xxh64.init () in
  Ftr_hash.Xxh64.update st b ~pos:0 ~len:100;
  Ftr_hash.Xxh64.update st b ~pos:100 ~len:1;
  Ftr_hash.Xxh64.update st b ~pos:101 ~len:676;
  Alcotest.(check int64) "streamed = one-shot" (Ftr_hash.Xxh64.hash b)
    (Ftr_hash.Xxh64.digest st)

let test_streaming_empty () =
  let st = Ftr_hash.Xxh64.init () in
  Alcotest.(check int64) "empty stream" (Ftr_hash.Xxh64.hash Bytes.empty)
    (Ftr_hash.Xxh64.digest st)

let test_streaming_int64 () =
  let st1 = Ftr_hash.Xxh64.init () in
  Ftr_hash.Xxh64.update_int64 st1 0x0102030405060708L;
  let expect = Bytes.create 8 in
  Bytes.set_int64_le expect 0 0x0102030405060708L;
  Alcotest.(check int64) "int64 = 8 LE bytes" (Ftr_hash.Xxh64.hash expect)
    (Ftr_hash.Xxh64.digest st1)

let test_fnv_known () =
  (* FNV-1a 64 of "a" is the standard 0xaf63dc4c8601ec8c. *)
  Alcotest.(check string) "fnv1a(\"a\")" "af63dc4c8601ec8c"
    (hex (Ftr_hash.Fnv64.hash (Bytes.of_string "a")))

let test_fnv_sub () =
  let b = Bytes.of_string "xxhelloxx" in
  Alcotest.(check int64) "sub-range"
    (Ftr_hash.Fnv64.hash (Bytes.of_string "hello"))
    (Ftr_hash.Fnv64.hash_sub b ~pos:2 ~len:5)

let test_fnv_combine_order_sensitive () =
  let h0 = 0xCBF29CE484222325L in
  let a = Ftr_hash.Fnv64.combine (Ftr_hash.Fnv64.combine h0 1L) 2L in
  let b = Ftr_hash.Fnv64.combine (Ftr_hash.Fnv64.combine h0 2L) 1L in
  Alcotest.(check bool) "order matters" true (a <> b)

let qcheck_streaming_split =
  QCheck.Test.make ~name:"xxh64 streaming invariant under chunking" ~count:200
    QCheck.(pair (string_of_size Gen.(0 -- 200)) (int_bound 200))
    (fun (s, cut) ->
      let b = Bytes.of_string s in
      let n = Bytes.length b in
      let cut = if n = 0 then 0 else cut mod (n + 1) in
      let st = Ftr_hash.Xxh64.init () in
      Ftr_hash.Xxh64.update st b ~pos:0 ~len:cut;
      Ftr_hash.Xxh64.update st b ~pos:cut ~len:(n - cut);
      Ftr_hash.Xxh64.digest st = Ftr_hash.Xxh64.hash b)

(* Random chunkings, some fed through [update_int64], digest like one
   [hash] call. Each op is (as_int64, size): an [as_int64] op with at least
   8 bytes left feeds exactly 8 bytes as an int64; every other op feeds
   [size] bytes (clamped) through [update]; the tail goes in last. *)
let qcheck_streaming_random_chunks =
  QCheck.Test.make ~name:"xxh64 streaming with random chunks and int64 feeds"
    ~count:300
    QCheck.(
      triple (string_of_size Gen.(0 -- 600)) (list (pair bool (int_bound 70)))
        (int_bound 3))
    (fun (s, ops, seed) ->
      let seed = Int64.of_int seed in
      let b = Bytes.of_string s in
      let n = Bytes.length b in
      let st = Ftr_hash.Xxh64.init ~seed () in
      let pos = ref 0 in
      List.iter
        (fun (as_int64, size) ->
          if as_int64 && n - !pos >= 8 then begin
            Ftr_hash.Xxh64.update_int64 st (Bytes.get_int64_le b !pos);
            pos := !pos + 8
          end
          else begin
            let len = min size (n - !pos) in
            Ftr_hash.Xxh64.update st b ~pos:!pos ~len;
            pos := !pos + len
          end)
        ops;
      Ftr_hash.Xxh64.update st b ~pos:!pos ~len:(n - !pos);
      Ftr_hash.Xxh64.digest st = Ftr_hash.Xxh64.hash ~seed b)

(* The per-page hot path must not box its Int64 lanes: minor words per
   call stay at the handful that the returned digest (and the streaming
   state's once-per-call lane write-back) costs, independent of the page
   size. A boxing regression costs ~1 word per byte hashed. *)
let minor_words_per_call n f =
  f ();
  let before = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int n

let test_xxh64_no_boxing () =
  let page = pattern 16384 in
  let one_shot =
    minor_words_per_call 64 (fun () -> ignore (Ftr_hash.Xxh64.hash page))
  in
  if one_shot > 16.0 then
    Alcotest.failf "hash of a 16 KiB page allocates %.1f words (> 16)" one_shot;
  let st = Ftr_hash.Xxh64.init () in
  let streaming =
    minor_words_per_call 64 (fun () ->
        Ftr_hash.Xxh64.update st page ~pos:0 ~len:16384)
  in
  if streaming > 16.0 then
    Alcotest.failf "streaming update of a 16 KiB page allocates %.1f words (> 16)"
      streaming

let qcheck_avalanche =
  QCheck.Test.make ~name:"xxh64 single-bit flips change the digest" ~count:200
    QCheck.(pair (string_of_size Gen.(1 -- 100)) (pair small_nat small_nat))
    (fun (s, (byte_idx, bit)) ->
      let b = Bytes.of_string s in
      let i = byte_idx mod Bytes.length b in
      let bit = bit mod 8 in
      let h1 = Ftr_hash.Xxh64.hash b in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
      h1 <> Ftr_hash.Xxh64.hash b)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "hash"
    [
      ( "xxh64",
        [
          tc "vector: empty" `Quick test_xxh64_empty;
          tc "vector: a" `Quick test_xxh64_a;
          tc "vector: abc" `Quick test_xxh64_abc;
          tc "seeded" `Quick test_xxh64_seeded_differs;
          tc "long input" `Quick test_xxh64_long_input_stable;
          tc "hash_sub" `Quick test_xxh64_sub_matches_whole;
          tc "hash_sub invalid" `Quick test_xxh64_sub_invalid;
          tc "regression pins" `Quick test_xxh64_pins;
          tc "no boxing per page" `Quick test_xxh64_no_boxing;
        ] );
      ( "streaming",
        [
          tc "matches one-shot" `Quick test_streaming_matches_oneshot;
          tc "empty" `Quick test_streaming_empty;
          tc "update_int64" `Quick test_streaming_int64;
          QCheck_alcotest.to_alcotest qcheck_streaming_split;
          QCheck_alcotest.to_alcotest qcheck_streaming_random_chunks;
          QCheck_alcotest.to_alcotest qcheck_avalanche;
        ] );
      ( "fnv64",
        [
          tc "known vector" `Quick test_fnv_known;
          tc "sub-range" `Quick test_fnv_sub;
          tc "combine order" `Quick test_fnv_combine_order_sensitive;
        ] );
    ]
