(** Every "this changes nothing" property through the oracle in {!Tu}:
    each variant runs the input table below two ways and {!Tu.agree}s on
    what the runs show, on the tiny, fpga64 and chip1024 presets and a
    tiny machine with wide clusters. *)

module C = Xmtsim.Config
module T = Core.Toolchain

let compile ?(arrays = []) src =
  (T.compile ~memmap:(Isa.Memmap.of_ints arrays) src).T.image

let assemble text = Isa.Program.resolve (Isa.Asm.parse text)

(* ---- the input table ---- *)

let examples () =
  let dir = Filename.dirname (Tu.example "clean_vecadd.xmtc") in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".xmtc")
  |> List.sort compare
  |> List.map (fun f ->
         (f, compile (In_channel.with_open_text (Filename.concat dir f) In_channel.input_all)))

let inputs =
  lazy
    (let a = Core.Workloads.random_array ~seed:5 ~n:2048 ~bound:999 in
     let e = Core.Workloads.random_array ~seed:10 ~n:64 ~bound:100 in
     let sparse = Core.Workloads.sparse_array ~seed:8 ~n:32 ~density:50 in
     let g = Core.Workloads.random_graph ~chain:8 ~seed:9 ~n:40 ~edges_per_vertex:2 () in
     let module K = Core.Kernels in
     examples ()
     @ [
         ("compact.c", compile Tu.compact_c);
         (* Table I's four groups *)
         ("par_mem", compile ~arrays:[ ("A", a) ] (K.par_mem ~threads:128 ~iters:4 ~n:2048));
         ("par_comp", compile (K.par_comp ~threads:64 ~iters:10));
         ("ser_mem", compile ~arrays:[ ("A", a) ] (K.ser_mem ~iters:60 ~n:2048));
         ("ser_comp", compile (K.ser_comp ~iters:300));
         (* the kernels the language and simulator suites exercise *)
         ("compaction64", compile ~arrays:[ ("A", e) ] (K.compaction ~n:64));
         ( "bfs",
           (T.compile ~memmap:(Core.Workloads.graph_memmap g)
              (K.bfs ~n:40 ~m:g.Core.Workloads.m ~src:0))
             .T.image );
         ("reduce_tree", compile ~arrays:[ ("A", e) ] (K.reduce_tree ~n:64));
         ("ser_comp200", compile (K.ser_comp ~iters:200));
         ("vecadd", compile (K.vecadd ~n:64));
         ("reduce_psm", compile (K.reduce_psm ~n:32));
         ("compaction32", compile ~arrays:[ ("A", sparse) ] (K.compaction ~n:32));
         ("publication", compile (K.publication ~n:32));
         ("ser_mem400", compile (K.ser_mem ~iters:400 ~n:256));
         ("ser_mem200", compile ~arrays:[ ("A", a) ] (K.ser_mem ~iters:200 ~n:2048));
         ("mix", compile ~arrays:[ ("A", Array.sub a 0 128) ] Tu.mix_src);
         ("rounds", compile Tu.rounds_src);
         (* assembly: eight virtual threads store squares; prefetch
            replies reach the clusters after the join *)
         ("squares.s", assemble Tu.squares_asm);
         ("prefetch-after-join.s", assemble Tu.prefetch_after_join_asm);
       ])

(* "wide" puts 70 TCUs in a cluster, more than one word of a cluster's
   runnable set holds, so every variant also crosses a word boundary;
   "skewed" gives the domains unequal periods, so clocks share only some
   instants and a woken clock lands between another's ticks *)
let configs =
  [
    C.tiny;
    C.fpga64;
    C.chip1024;
    { C.tiny with name = "wide"; tcus_per_cluster = 70 };
    { C.tiny with name = "skewed"; icn_period = 2; cache_period = 2; dram_period = 3 };
  ]

(* One (input, config) pair.  Its plain runs, gated and ungated, are
   every variant's reference, run once. *)
type row = {
  input : string;
  config : C.t;
  image : Isa.Program.image;
  what : string;  (** "input/config" *)
  plain : gated:bool -> Tu.obs;
}

let rows =
  lazy
    (List.concat_map
       (fun (input, image) ->
         List.map
           (fun config ->
             let gated = lazy (Tu.observe config image)
             and ungated = lazy (Tu.observe ~gated:false config image) in
             {
               input;
               config;
               image;
               what = input ^ "/" ^ config.C.name;
               plain = (fun ~gated:g -> Lazy.force (if g then gated else ungated));
             })
           configs)
       (Lazy.force inputs))

let each f = List.iter f (Lazy.force rows)
let gating_name gated = if gated then "gated" else "ungated"

(* ---- pinned reports ---- *)

(* MD5 digests of the gated runs' reports, recorded before probes heard
   wait episodes instead of every waiting tick, per row: what the probes
   reported (all of them on tiny, fpga64, wide and skewed; the profiler
   and the span trace on {!chip_probe_rows}, "" elsewhere on chip1024),
   and the {!Tu.sampling} and {!Tu.retuning} plug-ins' reports.  The
   skewed rows, and prefetch-after-join.s/fpga64's plug-in reports, were
   recorded once clocks ticked in rank order: before, that row's gated
   cluster clock ticked after the cache and DRAM clocks once woken, so a
   sample point read one DRAM access more than the ungated run did. *)
let pinned =
  [
    ("clean_compaction.xmtc/tiny", "ce3b29a342746edeab544466bea869d5", "bd33c6701f174d6e87e974cf9d546d7c", "604020b6fbc970ef27573a88f0f9f65b");
    ("clean_compaction.xmtc/fpga64", "ff0be6e0c1d1beee7ec2a38fc2c34b74", "84544add2536dec4796a5b4e294947af", "1d4d1563bb4d30f8467b6652779f4b69");
    ("clean_compaction.xmtc/chip1024", "", "3554c2967191b84e69bc8a3a1f388fd2", "37ff8c4916904eb66be6d89acf48c8f7");
    ("clean_compaction.xmtc/wide", "f374bf6fcfeba9662c632ac4b78afb31", "7503d8f1ef161d7df8a567fd936a0332", "cef8c9ec4972f3e5d4317fb077576784");
    ("clean_compaction.xmtc/skewed", "60edb79e743344f0184b40e2f99273e9", "ab2d8f9a939ab46127b9c8f5225eb5f8", "6b967ccc7c01802303b6d114bdd6340f");
    ("clean_vecadd.xmtc/tiny", "90d7bc834ed2e8f026cfaed4808d7514", "0f70e06e796a9a3c2dbc151f7c131e37", "f34ca0ac25969bb3ec05874db0720875");
    ("clean_vecadd.xmtc/fpga64", "110808cefbdd839f232320b42ecdeea7", "daff58479423caf5558b05ca1fa7d64e", "2b9bf3a15c38d42ca7f62440d23aaa08");
    ("clean_vecadd.xmtc/chip1024", "", "1375361eeaee2e3f8459efedad620d89", "e5ea7056235c14801db56751f6696387");
    ("clean_vecadd.xmtc/wide", "f25588324e93a40c669c10b13e17cc8b", "8c5fbead1706536e135c8a09a315e557", "c12b1c77577dacc18059c3623e1c6bd6");
    ("clean_vecadd.xmtc/skewed", "f90af75f9a6382b7c8d0d8179920ab1e", "cd25b974277100a990fb9908ab040051", "9617b93730eb8383802c3507b56b1966");
    ("publication.xmtc/tiny", "ce7d4a35d6b0ee694d090a0f507985f4", "be670a9cce15e6214d4051a20a93ae15", "8f93bd39bb175dd9501af76c11b8dc66");
    ("publication.xmtc/fpga64", "fd29e94aee27729fbff05c1207654c56", "b6def9003b488f7e2ca0547a6b0c2978", "75278a3fcfd46ac0a9ecaa12c67a1757");
    ("publication.xmtc/chip1024", "", "bbff7f6a0e6044e9e87a3211d6f2267d", "a95672fdc8fc72de363f9c4917f6ea85");
    ("publication.xmtc/wide", "0cb98f97bda7c5b1416572f19d5c42d5", "4ac99164dd1ec0081cf4f21acf42c979", "7d0ea5364e51c6722dd6af7d5d93f398");
    ("publication.xmtc/skewed", "93da2e1a3eb5c8e74b3a33fe7d6bdc94", "fbf8e8152c4762e25acbe37b44fc1589", "1d78cdeb55d39b9005866bd864bb496a");
    ("racy_accumulator.xmtc/tiny", "503d17efbe36488f794c17d73f93c246", "c115e154bf31a5f3d8e6036e15146909", "bde39b442a65e43c6a2159e7013c8f1e");
    ("racy_accumulator.xmtc/fpga64", "cf6bb3af17b03890d810602ae1244f93", "4d56a8de1dc9b241486915855dace9a9", "069c12fb57ec92e3c817cae5debd9194");
    ("racy_accumulator.xmtc/chip1024", "", "75d8aeed3236c226c69f0ae180c08596", "c51fa3baca8ba42463eff97fb08facef");
    ("racy_accumulator.xmtc/wide", "9823ecd1a8ab4e7b68bb57ba33669c7c", "cf3be7af55f2ebbe8daffd5c9d6913e3", "5e90e1507ebdb48fe56a17bdb3f64cb8");
    ("racy_accumulator.xmtc/skewed", "3fb0a497a2ee740e8549c89893280faa", "9f3cecb06637215ec7667a74a586cd47", "23bed0790b7da90c2fcc95692788b6f7");
    ("racy_overlap.xmtc/tiny", "0ade3d0a2f5cd9893be860ae267abeb1", "2194ad46731afc33513cdc46ba5b7201", "8674957a39a48dc207d5c8ab293cd596");
    ("racy_overlap.xmtc/fpga64", "5bfd433bffb20e4d14afc1a5f4e1731c", "d88fe92c87d7199f633f8109cb9f80eb", "9b2cc35d9bae5b85e61e9faa61959779");
    ("racy_overlap.xmtc/chip1024", "", "590afe74b7071a8cbc81f6da9183891a", "ab5a8d2a29accdd7a818dbae47a585a8");
    ("racy_overlap.xmtc/wide", "ed9b7464b06093e11774a45c5bd2ce54", "4bbd95a7e0e58995380930b1e7391bc8", "bf35194af358a432f255d5f4dad2c8c2");
    ("racy_overlap.xmtc/skewed", "dbdd2159dd7810b9b8723ab0e3dbcea9", "41b58ed0394451877532316ad65f365d", "3b5ae5c46c5992f3c4f8f8f5f0f1651a");
    ("compact.c/tiny", "62404f516bf391b041904d39051c8102", "a6cb481849d681e03708be43d84dfa46", "b042d83b7557e59eaa63d39d7967193a");
    ("compact.c/fpga64", "801ea3544bca0111e89c4092df2cb3e2", "a92208a3adb64b4d405f6c7811120180", "6f8b45cfffa60add3ba227cdc348c818");
    ("compact.c/chip1024", "", "9fd9fe085af0873b1278bf1d93ad4f1e", "b97fac48b16e923b1b769b712e232f52");
    ("compact.c/wide", "8e2b856353d18d9d50958097987accdf", "aa976a3df26e450fb959ed64c38df195", "1c4713d28cce97cb5daace0793a2678d");
    ("compact.c/skewed", "e3d1f5a9fdfb959a6f6409b734b5c4d8", "ca36825c54563bad4e93660b4cb62770", "3ab0b5d93e50364cca65ed06cd9af45c");
    ("par_mem/tiny", "7c9314540bd9c5bb8c04a1f884b23b78", "d330b9c6b576cf1d87f685cf26d83e12", "b7ad3b4a1e11b908c30b5a5f3f53e37a");
    ("par_mem/fpga64", "9c55efa52106263760b735ec7d848321", "d1f58543f7eda515a4eea11c98607fed", "8168507933e40731df2329c3d381b1d0");
    ("par_mem/chip1024", "fe6e4acdc74c083256bd6f9b33f19219", "e66b82b139c4255b108e9f3bc1d6b620", "a357845b744d459c3443bb7f76666bf9");
    ("par_mem/wide", "f57788c1d7d37314c9f30a15d87fe439", "40847c8b57c9a987f7df35dc65dc443a", "0d488b066b746ea315364606aeae9cb5");
    ("par_mem/skewed", "8e2e1b8a0d70b504b6ba4bfb73fad1d1", "64f1ca9030e2f2fe30040c11c823a705", "56643e28815210bfe60f541c7d818e81");
    ("par_comp/tiny", "95078a0b89afee1146b0785226e3c3ca", "d2dd3ed17bf93ba5872f3e1ff872ef82", "2e6c674e6be23ebeaaa1a922b8defd56");
    ("par_comp/fpga64", "e78cab6d2eac5ae1f6fa31e6ec118e0c", "b51a9d72175f654093c83326ffab1ca0", "4c42e113e1f60be8e82d24f0a468e13f");
    ("par_comp/chip1024", "", "22317359f61b8522dc1bf66358212c57", "e4e91b96056c67b187250e13b12edd2e");
    ("par_comp/wide", "4fa69f293293c948775e10953fb6efba", "2089e9dc2cb39c7b88f5ed71dc92c10a", "4b01e6888b6b28c6bda345b0c1ea2b4d");
    ("par_comp/skewed", "8f5f26612503e1cc44db5a5b4a5ce037", "23009a39e952499e8d650d9f70f77c3a", "1398fc5afbd462f529b54b727a8e49af");
    ("ser_mem/tiny", "1fa982b0d00204e2f45be802d6c44231", "5ffb100aedd6836f25baee3fb6a46922", "508bec8870b75d35f302b009a762a40b");
    ("ser_mem/fpga64", "2fc0e6122b1dafcf70f94b201ecdc2c0", "639d6cea223928c12572f336c146bcfe", "925601c6b8450bf070b5973ef62951a9");
    ("ser_mem/chip1024", "", "e4c12e6c22df762ef782fb16f93c972e", "b3464d1b1fb4f473659a110850f41157");
    ("ser_mem/wide", "0e3ac432881b6eef1d358bdd4c67205d", "5ffb100aedd6836f25baee3fb6a46922", "508bec8870b75d35f302b009a762a40b");
    ("ser_mem/skewed", "fcac5d21f519a8dd0699f0eb65498228", "a31185dbada3c651c9af6679887430b5", "c3e7610d4dd1388569eb805d993f7fd4");
    ("ser_comp/tiny", "2b4238342fa37d30ce58ee0aa781fb19", "01b979fd82dd54d2c26503a14549b228", "12894c7c92b33ceb8a902b4b11261bbd");
    ("ser_comp/fpga64", "33cbc936f119cd6a5b249116c772c138", "0b26935545783c427e2ca7d165e6b412", "2fe60b932c2cdd158ad6b0cb3a7203c5");
    ("ser_comp/chip1024", "", "6ecdfb6d512307438c2cee6236db9ef3", "c60cb1b0abaab72a00d1b38fddc8f6c6");
    ("ser_comp/wide", "4a69e545f0867f6a487290602504b2c7", "01b979fd82dd54d2c26503a14549b228", "12894c7c92b33ceb8a902b4b11261bbd");
    ("ser_comp/skewed", "2b4238342fa37d30ce58ee0aa781fb19", "01b979fd82dd54d2c26503a14549b228", "14e1d7310f0e71a73470214019142619");
    ("compaction64/tiny", "9876b01cb64ec5b431e5a09fda993dff", "7af8829412078eba85ced983d91b721b", "7182ae5933e9327c471e28b73cdde071");
    ("compaction64/fpga64", "6f8cc918f13ae48f0702d6784be3a0d4", "58a2e3ef989ec4060975ff23ec4765ff", "1487b5bfb27adecec3d012d2913f9d5e");
    ("compaction64/chip1024", "b17e937c92154fab37b5235cf0028f8a", "5e532cce3e58ff0504871c0f7a3073b1", "080d781313b12012a6e437420a93cf0c");
    ("compaction64/wide", "491135081a7a98b23fa8b0fd3cf2dbc4", "5890c464dae7ec7be70f9d442d7d5232", "b38bdd7eb14fe69d6bf993d9045c17bb");
    ("compaction64/skewed", "41f05d14badf1a926a52284e50594012", "336f1452ba80be41f3b0dae7e4a50229", "6d7e3c2003cb64a32a45c953ad4e20c8");
    ("bfs/tiny", "be9b36ccb6c599d6b8f1ccb5060ad903", "74f70e6b2cf06d161546e6ad31825620", "2cb9cb06398f1a5252b2c00a51dc11dc");
    ("bfs/fpga64", "f55fb0259839b063fb454b636e2f7bc9", "a85d05a2a3c79416633ee55e291fe431", "081136d729e1d10a47053bfc19eab039");
    ("bfs/chip1024", "", "7bc1a65aeab9d4e613a722fe6a9b28d9", "9bc2948545bce3e3faded901fc27055f");
    ("bfs/wide", "374e228a2d9ee104a846dd60886eade8", "19433375e42770532a26fbf02fd90bae", "ed6d5399036b67b59cbc895948be8667");
    ("bfs/skewed", "a980ec114df1caff352ada42b40cd1c3", "15673a252c147a4c845aa166e99ef882", "895dd2652014e0ced48ea3324e903f4a");
    ("reduce_tree/tiny", "c16dcbb9bbbe45649bc64241ccca850b", "754b7a4ecf70d78e104b4c991130d7df", "b21d06f1897ca984d046c02e0cf4284a");
    ("reduce_tree/fpga64", "8eb7a89bec0bf3b3247549682d7bd790", "eb579319da55ded7b75904e27c7c8441", "14914e1e1424295ff3679a590026cfc0");
    ("reduce_tree/chip1024", "", "55f83a4f0e72fe54c318ebc56e6c8a39", "5d0eafde400af5946cc5e40ebb5b9610");
    ("reduce_tree/wide", "378c231b273a56d56c36ae6a1889abc2", "59a96c5ea95e452307546125c50a1489", "5737d7ae7f6f10459b1b7acd23f95bf7");
    ("reduce_tree/skewed", "b238cd47af7c11b099a6be79a34e15d8", "64bc9b5526c14d444dd94e4a0ecd05f9", "4dcd83aff784c19080c038ece352915b");
    ("ser_comp200/tiny", "cd7a86c469b56853d2f75e776b27c133", "d030f074ff98d55c1662a36f013fe527", "15b76e70d2efb473782c947142c6dbc8");
    ("ser_comp200/fpga64", "673a8fdbb4c3cb0e82720b7bd12daf8f", "5f6b7e96367b3258c104b96761971bf2", "ca02bffca7c2c1cf139f08e054e99e10");
    ("ser_comp200/chip1024", "", "0cb356ffa91168ce18d6dc01efc497dd", "51f83a29706d85b5f169fde5477351bf");
    ("ser_comp200/wide", "2a6b0e3db0adabe37e2599d690439677", "d030f074ff98d55c1662a36f013fe527", "15b76e70d2efb473782c947142c6dbc8");
    ("ser_comp200/skewed", "cd7a86c469b56853d2f75e776b27c133", "d030f074ff98d55c1662a36f013fe527", "b516d2eea0bc2f8c741ecb137ad3bd93");
    ("vecadd/tiny", "87e87f70101711fcb264369a8174b855", "0f70e06e796a9a3c2dbc151f7c131e37", "f34ca0ac25969bb3ec05874db0720875");
    ("vecadd/fpga64", "5c8c1b4497b04cbc793e94c569fb2fa1", "d350b3d0b19ecbf0f7b24bfab9fe916e", "ba9feed09b52d7cf469531122eaa1a5c");
    ("vecadd/chip1024", "", "8c74098f053c0ce33ff6f27f5c509d10", "202f0f1432ffb5035651f06a8f69157e");
    ("vecadd/wide", "76d24ea04a1a26f736397768766366cb", "4235c54bd6927125f5ece081be7de9e2", "b09133a2b88531008fadf43fea2a2db2");
    ("vecadd/skewed", "dd1f84e5e431f6af0114de3b863e327c", "8421ab462a1380a5fab2190f8e38e290", "f15398efbf743804d2f645101fbc4f22");
    ("reduce_psm/tiny", "31b20b15d893d7e6c4a38d8c4add1a3d", "e56f6cc3b7c77831473f1939339e9d9d", "bc520ced1a4c5fe98974a2e9398775dd");
    ("reduce_psm/fpga64", "bd327d29fd6702c33f12d8f73a23915f", "e60e4289c1a138a4e0cb112ff2defb7b", "174507992cf9d5897f07ef41a65acb09");
    ("reduce_psm/chip1024", "", "88c93cee4bbbf90c698bd67da50bbb15", "d513bc5e7c4efd7e79fc88a368bee239");
    ("reduce_psm/wide", "a2ca9c418064e8d350a398627d8b251c", "c95f730494939c1d88b882335fb32c65", "ca26e478c6590b38ec1aade55e3ac45f");
    ("reduce_psm/skewed", "1dcb9fdea636eafab117131f7905651a", "db1fdc33851bcca4d7139059b9d0e2dd", "4fa3d95579572f80f5b885c43345a24e");
    ("compaction32/tiny", "90313c26b0c6864580acb5ca89658879", "38fdbde19ccddb7680b376c3ea33c6ca", "b1f50ff13f03a282e331a094fd69840b");
    ("compaction32/fpga64", "75bac22d2852a3b34ad62a126ce4804a", "50e135cb65a80b1b5ffcc9cc33ff82e5", "30e3cb93e7253796ed0aafa19a67ea0d");
    ("compaction32/chip1024", "", "b6447f279c4fee2e950876dd7721d5fb", "e1d137be82f4228f19fdff7bc9e9c39d");
    ("compaction32/wide", "3f983bf14159736c631362536a1d0824", "12661bb0dc2e70bcea336cd8d376216b", "a6d851fcaba05697ff83e6e59b6c6bda");
    ("compaction32/skewed", "74a1de34680155f8d20af0518e883b1b", "e2269858433bb02a171b2d731546e1f9", "372f7b0fafe0239f13de678f72006b36");
    ("publication/tiny", "b39d8142bafbd6de113b5026a647ffeb", "715f5bd465bc79f0b234249451637746", "61e5dd1415a9ab456766e9e617e3ddce");
    ("publication/fpga64", "2bbcd4abc35493e0c73777d92a19b884", "11a491bf233b03fbb3e19b7ea1ae7f25", "cba0af9adefa74ed6c2c2ebbe5d05f3e");
    ("publication/chip1024", "185403277d14c7544bb23414b77143cd", "e5d62b3d977e3fde02946ce25a1548a8", "5b9648d8fc331e5e1e0a7027f936caac");
    ("publication/wide", "268c972cfbb34d7144b72031475633b2", "c35acbd8cf532f0f67ebc6bf41decd65", "de10c925eb6ac2aa32fa3aafa87cc8af");
    ("publication/skewed", "293fcd13253aa777185393ebe1aec184", "0bf4b31ced324da19582bf19b25765f3", "ec076c128d41ce246e62757bbfa1e97d");
    ("ser_mem400/tiny", "fbc56f8d60e4761610a90e69d8bb9307", "5562a910dd85ebdf881b60e03db7586a", "0b5952821782473b273668cdf2e5fd3a");
    ("ser_mem400/fpga64", "997db78c4e4b95500481e63fb68df86e", "8bb643669c4cbfd60d0ed147fc521d40", "b3744b74f82339067db0ec0e78d4286e");
    ("ser_mem400/chip1024", "", "69ae371764279e45cc160d3a8455fdec", "d6bcb95098041350a1feabad567a21ff");
    ("ser_mem400/wide", "9a543f58b9f8392b40ce7a9345fab540", "5562a910dd85ebdf881b60e03db7586a", "0b5952821782473b273668cdf2e5fd3a");
    ("ser_mem400/skewed", "4c3238ff0f169187fc513f864acdf0f4", "1f2d3b66515f2deb235966f8c8b678d3", "1f088a81cec65e711422eb9a4bde2034");
    ("ser_mem200/tiny", "6a9c775403893cb0c0083e7bdebd06ae", "d3842ec1f2b5d3fd15f637a2a9726468", "a2b44bdc684ba4d48c19e353f5b1f89f");
    ("ser_mem200/fpga64", "3e55114e21b03c162d67ba81f663f018", "f644931b28cfda8073f4e826ea71d706", "3296e7375d6dff15f9181b5ffd3f495a");
    ("ser_mem200/chip1024", "", "76a26ccb58dc02acdb03e5cc2d04f517", "ea77ad536bfd9b243a0efa9f15160e8b");
    ("ser_mem200/wide", "1a38544cd2f2b8d4c945a49eb44edd2a", "d3842ec1f2b5d3fd15f637a2a9726468", "a2b44bdc684ba4d48c19e353f5b1f89f");
    ("ser_mem200/skewed", "44d6be9d2aa30a52acf5936c0dc0ecbc", "fb4377589a8d2cd0edb4a2df665374cb", "7d88db63cff0c08fe18bb3ecb52e8221");
    ("mix/tiny", "185a2ebeb8fc369fa8c803c092ec58e7", "9ad909953edd23a6c7cfd625675cea88", "50e7979acc0e2a535b998ddcb3bc89ce");
    ("mix/fpga64", "0301a6e2f1658c66116471d877844e2c", "c0512f44298c48e8b51497f02e913a4e", "42e3aedaf22905afa58ef620eb49d4c6");
    ("mix/chip1024", "", "11baf12fd668748766acc694d3a88eb1", "a50aa7b8dc2e9ff7ef55dc14538e4a7f");
    ("mix/wide", "d8800263d76eac07b720d56d7fd6f78c", "496022e1fd2361513c342ea43ce3a31f", "b26f35792b11be2ad4b3f6de2455e4b9");
    ("mix/skewed", "117f305477eeda47d8d6d1066e44a89b", "6b5dff91c594f073d3635be066585abc", "67df1685de5291b51799588b3c16651b");
    ("rounds/tiny", "692006a43bf1e7c8e57dc415456e8013", "b5ee6d418a95660b02935bde5d8de86f", "04648a90fb98d3fbd16dc812c1e8f99b");
    ("rounds/fpga64", "0593731535c1f8823b9b3cc3dc17e377", "4aee80afc671bad51e7eab2af3b29603", "c2b112a6dd5cc25723aed8e19f97de75");
    ("rounds/chip1024", "", "51017c274e24293880ae1e574134b113", "23cafdac66dd48bd6dd77c42830c94cd");
    ("rounds/wide", "89e5af9c2c18f7089774a62badd5294f", "e1fb444c9beb23cf6b1ada9b5d55abd7", "4874f575b27afb41132b48be48e48329");
    ("rounds/skewed", "3ea9ba428879e8df530b744ea76085d2", "5bd91ebb268ea308e6f3e341c602a8b4", "3eb0301cbe632e40a06ce58145f56c97");
    ("squares.s/tiny", "6f43ad428c0d61151ddc21453f643c47", "b97d772fc8a28337c1f4aff481f2c2c2", "6696b6c6606669ff3b743d9aa3cfc39e");
    ("squares.s/fpga64", "4ba9d5bb4089fd38785624165ab1065a", "497b5accfe33e5e1c579dd8d5c56b7b1", "a26c74b5740273689b4d0b21a8ecdf31");
    ("squares.s/chip1024", "", "d32eadc4a5b9c8b3f479a24150205ad1", "b1101f538db0a3fcbb915cfdf05fc786");
    ("squares.s/wide", "d41036491b300d20d5a29334909c3769", "e9a44736f47028873eb3c77bee982f88", "d0256ff94c182d4831f57f30d96a0a1e");
    ("squares.s/skewed", "2764a666f12dea0c526b89978be92a50", "dfd4d749b1ddfd8ff7cbfcb206878a11", "ac925b7e14271d62b18ad865581b6fb6");
    ("prefetch-after-join.s/tiny", "7f142d481ad6cd17b9b7494819c9a054", "8c29596164e40e6a3c1249333bd7438f", "8404e211a2b724d1160a561ab46274e5");
    ("prefetch-after-join.s/fpga64", "3e58b8ce2acb1fa684e041d1e965c72d", "b7a5118fb6519b3f4e947a079b1aedca", "d4a8d336487a01973de404ba6fc8ec6e");
    ("prefetch-after-join.s/chip1024", "", "b07cf5dd3ee7b5818d0c388c370204a2", "ed7a0a68df58f142986ca7d9b0ee891b");
    ("prefetch-after-join.s/wide", "0818b32e2056951b79abd983e2d1cc6a", "227123015d5a5da2b58140ea60cfe7de", "a23931e7a0297c5038e29a82c4f34ea0");
    ("prefetch-after-join.s/skewed", "d288456c569f2d924b36fc8a112c76af", "fec69bfaf0e74e0ffabb5dbea20b1992", "6467450117615a4e32de20e7bfc2df54");
  ]

let check_pinned what name report =
  let _, probes, sampling, retuning = List.find (fun (w, _, _, _) -> w = what) pinned in
  let digest =
    if name = Tu.sampling.name then sampling
    else if name = Tu.retuning.name then retuning
    else probes
  in
  Tu.check_string (Printf.sprintf "%s %s report pinned" what name) digest
    (Digest.to_hex (Digest.string report))

(* ---- the variants ---- *)

let functional_equals_cycle () =
  each (fun r ->
      Tu.agree ~fields:Output ~events:Any (r.what ^ " functional") (Tu.observe_functional r.image)
        (r.plain ~gated:true))

(* The idle cluster clock really sleeps, unless the master computes
   without a pause, as in ser_comp. *)
let sleeps r = not (List.mem r.input [ "ser_comp"; "ser_comp200" ])

let check_sleeps r what (o : Tu.obs) =
  if sleeps r then Tu.check_bool (what ^ " cluster ticks skipped") true (o.skipped > 0)

(* Gating changes nothing simulated and only saves host events. *)
let gated_equals_ungated () =
  each (fun r ->
      let g = r.plain ~gated:true in
      Tu.agree ~fields:All ~events:Fewer r.what g (r.plain ~gated:false);
      check_sleeps r r.what g)

(* Each probe, and all of them together, leaves the run exactly as a
   plain one, host events included, gated or not; what they report does
   not depend on gating.  All of them run together on every tiny and
   fpga64 row, one at a time on the kernels below (chip1024's rows are
   the gating variants'). *)
let one_probe_rows = [ "vecadd"; "reduce_psm"; "compaction32"; "publication"; "ser_mem400" ]

(* The profiler and the span trace also run on these chip1024 rows. *)
let chip_probe_rows = [ "par_mem"; "compaction64"; "publication" ]

let probes_are_passive () =
  let all = ("all probes", Tu.probes) in
  let one = List.map (fun (p : Tu.observer) -> (p.name, [ p ])) Tu.probes in
  let chip =
    ( "profile and spans",
      List.filter (fun (p : Tu.observer) -> List.mem p.name [ "profile"; "spans" ]) Tu.probes )
  in
  each (fun r ->
      List.iter
        (fun (pname, observers) ->
          let probed gated =
            let o = Tu.observe ~gated ~observers r.config r.image in
            Tu.agree ~fields:Sim ~events:Equal
              (Printf.sprintf "%s %s %s" r.what (gating_name gated) pname)
              o (r.plain ~gated);
            o
          in
          let g = probed true in
          Tu.agree ~fields:All ~events:Fewer (r.what ^ " " ^ pname ^ " gated") g (probed false);
          if pname = fst all || pname = fst chip then check_pinned r.what pname g.report)
        (if r.config == C.chip1024 then if List.mem r.input chip_probe_rows then [ chip ] else []
         else if List.mem r.input one_probe_rows then all :: one
         else [ all ]))

(* Activity plug-ins keep clock gating ({!Tu.plugins_keep_gating}) on
   every row. *)
let plugins_keep_gating () =
  let throttled = ref 0 in
  each (fun r ->
      if
        Tu.plugins_keep_gating ~pin:(check_pinned r.what) ~sleeps:(sleeps r) r.what r.config
          r.image
          ~plain:(r.plain ~gated:true)
      then incr throttled);
  (* the governors' decisions were compared, not just their silence *)
  Tu.check_bool "plug-ins throttled somewhere" true (!throttled >= 6)

(* A checkpoint written to a file and restored into a fresh machine
   carries the run's telemetry ({!Tu.observe} checks that).  Taken
   before the first cycle it changes nothing; taken at the first
   quiescent point past half-way it leaves the program's output: a
   snapshot is architectural state, so the caches restart cold.  On
   tiny and fpga64. *)
let resume_equivalence () =
  each (fun r ->
      if r.config != C.chip1024 then begin
        let straight = r.plain ~gated:true in
        Tu.agree ~fields:Sim ~events:Equal (r.what ^ " restored at 0")
          (Tu.observe ~resume_at:0 r.config r.image) straight;
        Tu.agree ~fields:Output ~events:Any (r.what ^ " restored mid-run")
          (Tu.observe ~resume_at:(straight.cycles / 2) r.config r.image) straight
      end)

(* ---- campaigns ---- *)

let squares = "int A[32]; int main(void) { spawn(0, 31) { A[$] = $ * $; } return 0; }"

let racy () = In_channel.with_open_text (Tu.example "racy_overlap.xmtc") In_channel.input_all

(* Predict jobs share a harvest per program and budget: two programs
   priced on three configs and once more with a seed, a race-checked
   one, and one whose budget runs out beside its program's full-budget
   jobs. *)
let predict_specs () =
  let job ?seed ?racecheck ?max_instructions name config src =
    (name, T.job ~name ~mode:T.Predict ?seed ?racecheck ?max_instructions ~config src)
  in
  List.concat_map
    (fun (p, src) ->
      List.map
        (fun (point, config) -> job (p ^ "/" ^ point) config src)
        [
          ("tiny", C.tiny);
          ("fpga64", C.fpga64);
          ("dram40", C.with_overrides C.tiny [ "dram_latency=40" ]);
        ]
      @ [ job ~seed:3 (p ^ "/seeded") C.fpga64 src ])
    [ ("vecadd", Core.Kernels.vecadd ~n:24); ("squares", squares) ]
  @ [
      job ~racecheck:true "racy/predict" C.tiny (racy ());
      job ~max_instructions:20 "vecadd/starved" C.tiny (Core.Kernels.vecadd ~n:24);
    ]

(* The stealing and failing-job campaigns are test_campaign's "warm
   pool" and test_stream's "campaign" cases. *)
let campaigns () =
  [
    ( "sizes, seeds and modes",
      Tu.det_specs () @ [ Tu.vecadd_job ~mode:T.Predict 24 ] @ predict_specs () );
    (* CI's campaign inputs: seeds, config overrides, functional mode,
       race-checked and profiled jobs *)
    ( "seed, set and mode",
      let job ?mode ?seed ?(set = []) ?(racecheck = false) ?(profile = false) name =
        (name, T.job ~name ?mode ?seed ~config:(C.with_overrides C.tiny set) ~racecheck ~profile squares)
      in
      [
        job "c1";
        job ~seed:7 "c2";
        job ~set:[ "dram_latency=40" ] "c3";
        job ~mode:T.Functional "c4";
        job ~set:[ "icn_latency=8" ] "c5";
        job ~set:[ "num_cache_modules=4" ] "c6";
        job ~racecheck:true "race";
        job ~profile:true "prof";
        ("racy", T.job ~name:"racy" ~racecheck:true ~profile:true ~config:C.tiny (racy ()));
      ] );
  ]

let parallel_matches_serial () =
  List.iter (fun (what, specs) -> Tu.agree_campaign what specs) (campaigns ())

let () =
  Alcotest.run "oracle"
    [
      ("modes", [ Tu.tc "functional = cycle outputs" functional_equals_cycle ]);
      ( "clock gating",
        [
          Tu.tc "gated run is bit-identical" gated_equals_ungated;
          Tu.tc "plug-ins keep gating on every row" plugins_keep_gating;
        ] );
      ("probes", [ Tu.tc "passive alone and combined" probes_are_passive ]);
      ("checkpoint", [ Tu.tc "resume equivalence" resume_equivalence ]);
      ("determinism", [ Tu.tc "parallel report matches serial" parallel_matches_serial ]);
    ]
