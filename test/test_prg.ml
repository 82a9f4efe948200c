(* The AES builds, the DPF's batched tree steps, and byte identity with
   the recorded golden vectors.

   - FIPS-197 and MMO known answers on every AES build the host runs;
   - [Aes128.mmo_level] and [mmo_leaves] against a per-node reference
     built from [mmo_hash], for every node count 1..33 and every build;
   - every vector of [Golden_vectors], byte for byte, against the table
     below. The table was recorded from the T-table AES, the boxed
     ChaCha20 and the OCaml channel primitives and key generation this
     code replaced, so the C builds, the level-batched traversals and
     the C ChaCha20, Poly1305, X25519 and [Dpf.gen] are checked against
     the outputs of the code before them;
   - [Drbg.system] fails closed when its entropy source does. *)

let hex = Lw_util.Hex.decode
let to_hex = Lw_util.Hex.encode
let aes_builds = Lw_crypto.Aes128.builds ()

let each_build f = List.iter (fun build -> f build) aes_builds

(* Recorded before the AES-MMO moved to C; the chacha.keystream,
   poly1305, aead, x25519 and d = 2..21 dpf entries were recorded from
   the OCaml ChaCha20, Poly1305, X25519 and key-generation tree before
   they moved to C. *)
let golden =
  [
    ("prg.aes-mmo.zero.expand",
     "ba0ac8314cd4edb59c8191dc22c0d1204c4aa1a20bb503275aa8afe9f1630148/2");
    ("prg.aes-mmo.zero.terminal",
     "b43c76c9048d210921300353b89158cf");
    ("prg.aes-mmo.ones.expand",
     "727c0eb2b0e018dbf72df27afb90c2b23e36f4de3db537786ceec3c0e3e95910/1");
    ("prg.aes-mmo.ones.terminal",
     "45aeed358e852fc98b451b894c8cea99");
    ("prg.aes-mmo.a.expand",
     "a91f24ea19e90865ca38bc65dfd776cc90db88bdfcbaff9a6eee65d7568e5854/1");
    ("prg.aes-mmo.a.terminal",
     "74019a4a5867378234b07d39da31b507");
    ("prg.aes-mmo.b.expand",
     "9b9e83faeac4cfaf8ec04a71d92044123293e47d7f2e1d41bdfad9ce7eeb7310/0");
    ("prg.aes-mmo.b.terminal",
     "9aa4496b754d14bbef6fd2ae0a4e4deb");
    ("dpf.sel.d1",
     "377d547a670b65c581031fc74f3ca138eddaab335650f505a512a1d67d224d1850c9c071c6a8cf6f67c004d56792a586fd3dea400af15e9a2d22a47b69b7f4eb");
    ("dpf.val.d1",
     "4046753de178e53ad6a93f0f2555531ab24b2aac62bf99c27118b461ce27f10061f0c8546c3f00c2e289a91eca32f4424dd23bb3df19684268fc9d7c3d176d91");
    ("dpf.sel.d2",
     "bf11019b9e91bf9995d569b58d98f98f66101f49ece82dc3320cc39a4bd1511912104e4a5783eb40831c2118c8ceede839477f9eb52bef01b40733320e299e8a");
    ("dpf.val.d2",
     "f2b4be851a341777c5e6c496f72aa1f8b68b2b18c234373e2a9d2436fab40a9317916a6299a5e306799053b7b309adc978e8d7954617eb610574f9083ae479df");
    ("dpf.sel.d3",
     "a6efbe6c1966f6a31b5635592cfc0629eedcd67f779e07bd3ca49ffc5b45e5d87bb0d33dce7746a38ea4b04a94e8500a2f271fcfe2097b7679679e452dd0847f");
    ("dpf.val.d3",
     "7b9faef28c3ebb6409c813ce7b21b60e2c697fdea4ba7efed76a718032d547195eaee2d60281f8b574d9cedf50fe6370e62134774c34fa9d416eb9ce358e38cb");
    ("dpf.sel.d4",
     "bf5170e21a9fd89829a99d8bb040693b6a996f24528dc44db75eac11298b3d038dd45723cd344da5887be9c2bcefb7e0ad9141d8052a668f503ee4d95975babe");
    ("dpf.val.d4",
     "d2d80cf1b005a9a274a272d5419b1bea2b8392d36ce1d3a99017e4663b117850fa7468cdf51c0f9652b632e5fa996e10647737d4abc2cc7e79c9a8aaef90f389");
    ("dpf.sel.d5",
     "740f58891d55a7035fee180a50b414f592a26aa0ae87a37bb37420efb3f37ca409446744b6e302c0457c1a666c79e3e26055a43432f7d8d5f2d2b7b0c36adb66");
    ("dpf.val.d5",
     "cd4acd6a77200e1e5e2464c1bd3511b6c861c100ac612157fc5ac5435d6f6c6e6038c4c10553893ec4add74b05f43d214afb8cdc08302c5b0c9fc5a278ff2b51");
    ("dpf.sel.d6",
     "34f6a39976a0f4d2ce564d3dcabf5b36e68f875a0a92a08de1bb0ae7e1b6f9c1766f969a8a245584dc60a437c481fd2e5727cb803e6d7dbbea0858977f751ea3");
    ("dpf.val.d6",
     "baaf06f501419fcf8894151f5a79c846771fa2bde87982d5b01050a522c38162404304bd551550c98649cae5bb28287b133c3ec7f92f1ca6a29b3bb627d5ffab");
    ("dpf.sel.d7",
     "062d92252c2492fd7c75445abd5abd9edf5ca53c3e8649dd0fd0456cf37b3b7e24418617e739fc3300d261c2db3aa1e3ddfc9c29ce8dcd8170365e0fbc029a63");
    ("dpf.val.d7",
     "c13d89cb862612ea6c9bfeb97697c8be904733e1411771b4b0fe64788e62102444f7e6917ea49e9a0e9d3027e4196b0a759af5d49f104f44546ef88b63e31c04");
    ("dpf.sel.d8",
     "fa0c377a1997272f6b50e10f5a1ae726f0cbb4654a58d769c31578254fe06eb13fbbfe2428363fa98ba99621bfcbee479638375f6e5d4835128a7aedfbd4bc7b");
    ("dpf.val.d8",
     "bd9bee071e6922d40def7a83dfab06ff58c09326b5ae3a6e9fe665fcf3a62b09a85e8caf4d0dc9e601c309b396a844f19056b1725411e98426c1414a40992569");
    ("dpf.sel.d9",
     "6fd53a32ff10769f8c72a85df3b8f59e2a8c71004b283b2680cb23f603f96511d30a6662fa403c915c56345cbd022f3d4f9dc9824245a3eb97526f82b2d5b734");
    ("dpf.val.d9",
     "f7171c41050eaa1dc0363741134ea7269bcede1168b723ba1e6511ad34f6dd26695241af02c3880fcfaeaed4181ca6e3c70e27efc9b418a4cfa86afc65ecf478");
    ("dpf.sel.d10",
     "51781feb241b360c73d9a2a4340972b198eea6581f0d28afc34672206ecdfd824c59c1955e517aceb84e027458d06cbe0c02d5fe66ff74c65470a91ecb57f335");
    ("dpf.val.d10",
     "d1ecd8ef640c43ef1cb64eef3f70e296e47e701845ce127e3a67910496b64e08c0683f1234c04134610f9bdcb428d4c6b6e2e372ee69697b322468eabf7d9c26");
    ("dpf.sel.d11",
     "4231bff94875e9107cd83af6af0725a992c5d5bd02617b8bb4878fef3d3334f33f23adc582719fecfcc8d99199febc99587e882548dd665f112d1902145d0125");
    ("dpf.val.d11",
     "a002c8ef894ac4ebb14704a78e4969fa8d0b228ab0ee9ff4b6fd2c9fc8eb4f2fe2d22731face636c74bab0f0ac05ef82e646c6e45729ef13ebd6448557bcb616");
    ("dpf.sel.d12",
     "0939fb46933838817e660626f9327663eff9ff932b6710df6ce1574a6c55ed3fee9e3d931ee9ac1438fd688bd474a8b37662e0e4341195dfdf78ed6868adb95d");
    ("dpf.val.d12",
     "ef73d5f1bb8feaf2ca61f806c5f2f7e1df4c468de75fbf9aa3136016923cab00b5fe842ab7af4d8aff7bbc34f558eab63064274af1fcd99b43599c993e16a72d");
    ("dpf.sel.d13",
     "dabd43412ddcd99439e4faac2d9779cae680154ad0cd52d69edd0441434aeb1fd281cb17a721cde88bfc6f4feb20197137c1859050a273bd04497358e4ceced2");
    ("dpf.val.d13",
     "f11abc82b90e462caa074e98b21cb8f71751580a3f81b8ba186673621377cc75a0bdea8fa72efaa8569891ed924db681e7a9cb6ee0f97321bb38c6e08ecd33ca");
    ("dpf.sel.d14",
     "12b276e6886c192987bcc95b298ff31dd9c9f097778410e6451bf533e1f5c8326e5620dff9402bc5195d26f28e02389241a08835497b4e6982e0110768dbb846");
    ("dpf.val.d14",
     "f38777662be9fbe50e84c6cfeb1acf7c3f79dd6beb62a24c505bfd512713743ed3eeec71eff04a703e7be267bdef40af706c22a5e77925c69ca44c68297ae8c4");
    ("dpf.sel.d15",
     "f016d57c46b8c98953271c6b07b299d172abe3909fb89a6fd772fb3d810e69d654e3f594cf006ac8f3675b392b5395e3d9253e586b55fa04c385b6016fbedfa3");
    ("dpf.val.d15",
     "5a2024a1c5e5ea1ee86f86b7957893d7fd56336f49176082eb77d49f4490e6d99bdfb97681b31b8c210548a6541ec03c17fb43c613b375908babb4c40a095bc5");
    ("dpf.sel.d16",
     "df0e168e6c06ac7add03f2e5969fc746f9fe8b600eb6ea3febcc1d5dbcc64b341de23a2584b172699a6955955b1b099f7ae0c7fc2af08f86ae8259fccbaa6121");
    ("dpf.val.d16",
     "1daabf9895a603945dd534fd358c6da8f6bed4b584c68ffe90c3fd24052979391a9499cb1363714218cb8299f05081866b9c8abc2e0534c689a554e99e90f289");
    ("dpf.sel.d17",
     "f1847105d360a2b13d7a45ca016d93d53fe32a4e7490d087064939adc9e7ae7566535ceef854c87a7028e48ef252ad09f3d876469d2063a678371d91530e4995");
    ("dpf.val.d17",
     "0b258f34be18db00c955bc1ecfae82b39c0e44a9b0beec252389b0475591aefabf360d8919d57ab80d9eabec41a8a6a0fb7cb6050172a1a44d8fa564cf8965c7");
    ("dpf.sel.d18",
     "d8b418ee29dcc65ae591907fa65ee0cc73af8cdb3ea58e7e1193e5b926acaa6b47428f65c59df54809ac761c37cdb7f4fd8c3470a200fc6a1ebffd67ebc0cef3");
    ("dpf.val.d18",
     "04faeb57472abce708a85f83d9560c9cc08b7b062880d603885c66ed7ec4f1b979f1d382c95e2fae8d544478b1859e55c3a3555dafa5f60c589c631469ce897a");
    ("dpf.sel.d19",
     "2fda67e945cec34577e7540307aa55cd6af0e65089a1de62fd9812b41a5f6ce57736b9741d9999493ff14993cb16b15deda244ad47e61b94155b998224f020b2");
    ("dpf.val.d19",
     "61e5c90716bc99148cff2ede3f4e79a1f73d9f4513e67d729916481c54113be4443ffe347ee9e76e2b051eae83b6733f5e5a34663e30e3d2532f2d3e92928dba");
    ("dpf.sel.d20",
     "6410eea601345fd28fd7ab6da9bff1ad761f7304c1ca582e2b070fa1f75ff3f7e2c2f3a91a102fceabe160ddcc6f45177bacd6d359deb47f74c0826bffb03c25");
    ("dpf.val.d20",
     "93d9aad7e040d152f5a2fd616d18cf6cb2a14f09c7e43cfa3a56a74fa3c7e4a410e23b4a6c90a54d4c43bfac5253eb9e4607d408917116d59844bbb4b135df7d");
    ("dpf.sel.d21",
     "50228ee6ff3703822e5794ca6189ec9a7b303162a418a76acb4d2ec0348ae56aea974e29953f857c17c6bee57221d8f806635b16074aa3ee178d6b7494234cec");
    ("dpf.val.d21",
     "16c8d4d4eaf087f4f4e5ac825fcfdab1af0188ec8de70a6371fada17f5688bac1132caf3d6ea0b04aa23d048c0853ea45fe3978454d4455549de18ef17b193ed");
    ("dpf.sel.d22",
     "040fa6e8ff5353bb8a04b51a96211a8061c3e3d5fd0fce51cffd0361abfb72193ae3251a4cec1255792a4590e1181b946cadfee1a27f31128fd0ceb8c2f3274b");
    ("dpf.val.d22",
     "601b58ac73ddeebc73b5f68b5a55772309b78c662b43b68fe6737ac5749c0f3e81250d27d09f483bc13366101bda8259d0f876a97a1fc6f428a3723277326e40");
    ("eval.sel.d10.all",
     "51bde1277501bf29230ef79948869df8501223e0609d6586ac5389d10ea4d6380dcd6699b8456851cfe033dfdbe17eaed91bb75a835b24571802945632fac238");
    ("eval.sel.d10.points",
     "0101000001010001010000000000000001010000010100010100000000000000");
    ("eval.sel.d10.blocked0",
     "51bde1277501bf29230ef79948869df8501223e0609d6586ac5389d10ea4d6380dcd6699b8456851cfe033dfdbe17eaed91bb75a835b24571802945632fac238");
    ("eval.sel.d10.blocked3",
     "51bde1277501bf29230ef79948869df8501223e0609d6586ac5389d10ea4d6380dcd6699b8456851cfe033dfdbe17eaed91bb75a835b24571802945632fac238");
    ("eval.sel.d10.blocked6",
     "51bde1277501bf29230ef79948869df8501223e0609d6586ac5389d10ea4d6380dcd6699b8456851cfe033dfdbe17eaed91bb75a835b24571802945632fac238");
    ("eval.sel.d10.blocked7",
     "51bde1277501bf29230ef79948869df8501223e0609d6586ac5389d10ea4d6380dcd6699b8456851cfe033dfdbe17eaed91bb75a835b24571802945632fac238");
    ("eval.sel.d10.blocked9",
     "51bde1277501bf29230ef79948869df8501223e0609d6586ac5389d10ea4d6380dcd6699b8456851cfe033dfdbe17eaed91bb75a835b24571802945632fac238");
    ("eval.sel.d10.blocked10",
     "51bde1277501bf29230ef79948869df8501223e0609d6586ac5389d10ea4d6380dcd6699b8456851cfe033dfdbe17eaed91bb75a835b24571802945632fac238");
    ("eval.sel.d5.all",
     "9d71c2cd986788226f9efcc7a6967f2b27160dcd33a8122c2fcc7a3a54b1596536133f24aa3748238be120230baab763e73c373e407d9e30bc781d58ef4e516b");
    ("eval.sel.d5.points",
     "0001000101010101010001000001010100010001010101010100010000010101");
    ("eval.sel.d5.blocked0",
     "9d71c2cd986788226f9efcc7a6967f2b27160dcd33a8122c2fcc7a3a54b1596536133f24aa3748238be120230baab763e73c373e407d9e30bc781d58ef4e516b");
    ("eval.sel.d5.blocked3",
     "9d71c2cd986788226f9efcc7a6967f2b27160dcd33a8122c2fcc7a3a54b1596536133f24aa3748238be120230baab763e73c373e407d9e30bc781d58ef4e516b");
    ("eval.sel.d5.blocked5",
     "9d71c2cd986788226f9efcc7a6967f2b27160dcd33a8122c2fcc7a3a54b1596536133f24aa3748238be120230baab763e73c373e407d9e30bc781d58ef4e516b");
    ("eval.sel.d13.all",
     "33d13a59e8fff95ec11fd9e3aa41ee6cf1a3debf8d9f3d167d6d128f1d9368dd5b66ab5da77a308db545697973a7e9251bfaabfd480c6a921f0dd714da53d1a3");
    ("eval.sel.d13.points",
     "0101000100010101010001000100010101010001000101010100010001000101");
    ("eval.sel.d13.blocked0",
     "33d13a59e8fff95ec11fd9e3aa41ee6cf1a3debf8d9f3d167d6d128f1d9368dd5b66ab5da77a308db545697973a7e9251bfaabfd480c6a921f0dd714da53d1a3");
    ("eval.sel.d13.blocked3",
     "33d13a59e8fff95ec11fd9e3aa41ee6cf1a3debf8d9f3d167d6d128f1d9368dd5b66ab5da77a308db545697973a7e9251bfaabfd480c6a921f0dd714da53d1a3");
    ("eval.sel.d13.blocked6",
     "33d13a59e8fff95ec11fd9e3aa41ee6cf1a3debf8d9f3d167d6d128f1d9368dd5b66ab5da77a308db545697973a7e9251bfaabfd480c6a921f0dd714da53d1a3");
    ("eval.sel.d13.blocked7",
     "33d13a59e8fff95ec11fd9e3aa41ee6cf1a3debf8d9f3d167d6d128f1d9368dd5b66ab5da77a308db545697973a7e9251bfaabfd480c6a921f0dd714da53d1a3");
    ("eval.sel.d13.blocked9",
     "33d13a59e8fff95ec11fd9e3aa41ee6cf1a3debf8d9f3d167d6d128f1d9368dd5b66ab5da77a308db545697973a7e9251bfaabfd480c6a921f0dd714da53d1a3");
    ("eval.sel.d13.blocked13",
     "33d13a59e8fff95ec11fd9e3aa41ee6cf1a3debf8d9f3d167d6d128f1d9368dd5b66ab5da77a308db545697973a7e9251bfaabfd480c6a921f0dd714da53d1a3");
    ("eval.val.d9.all",
     "0de0b9226f3dd73be8d733b008ed03426aac6c82e4c78a081d8495c548fb50d3f0fe475cb97646f8744a7aaa8ce469b85698d2e16e83f47c33c198880c9b26a8");
    ("eval.val.d9.points",
     "0001000001010001000100010001000000010000010100010001000100010000");
    ("eval.val.d9.blocked0",
     "0de0b9226f3dd73be8d733b008ed03426aac6c82e4c78a081d8495c548fb50d3f0fe475cb97646f8744a7aaa8ce469b85698d2e16e83f47c33c198880c9b26a8");
    ("eval.val.d9.blocked3",
     "0de0b9226f3dd73be8d733b008ed03426aac6c82e4c78a081d8495c548fb50d3f0fe475cb97646f8744a7aaa8ce469b85698d2e16e83f47c33c198880c9b26a8");
    ("eval.val.d9.blocked6",
     "0de0b9226f3dd73be8d733b008ed03426aac6c82e4c78a081d8495c548fb50d3f0fe475cb97646f8744a7aaa8ce469b85698d2e16e83f47c33c198880c9b26a8");
    ("eval.val.d9.blocked7",
     "0de0b9226f3dd73be8d733b008ed03426aac6c82e4c78a081d8495c548fb50d3f0fe475cb97646f8744a7aaa8ce469b85698d2e16e83f47c33c198880c9b26a8");
    ("eval.val.d9.blocked9",
     "0de0b9226f3dd73be8d733b008ed03426aac6c82e4c78a081d8495c548fb50d3f0fe475cb97646f8744a7aaa8ce469b85698d2e16e83f47c33c198880c9b26a8");
    ("eval.val.d9.blocked9",
     "0de0b9226f3dd73be8d733b008ed03426aac6c82e4c78a081d8495c548fb50d3f0fe475cb97646f8744a7aaa8ce469b85698d2e16e83f47c33c198880c9b26a8");
    ("value.shares",
     "bdf606fa247e9f6db160f87a3e4e6ec71f1bb83231456efac0643d505a8dd34c53fbac7e4050df22269fb7a5d8f6ea50857c501fe724abf8cbc10cd70b21a48a");
    ("value.seeds",
     "151cc77d15f0e2040e7b1bcefac02aa88fc1022003f37dc7eb36f2d4b4f3558e28559395861127fa7fee64152d01fb6d98958021468c078bd24cccff832c3f17");
    ("split.d10.s1",
     "616e86023e433894b347d69a6e5fe58215efca7882c60cd3e300f747941e6c38");
    ("split.d10.s3",
     "0f0ef3edff8c867b277608b036898b6a8ad5860bb93acfc8ef5bae20b835fdbd");
    ("split.d10.s5",
     "0cffc8ce6de2cfe0ea083026d06e4bdee83441f6c382b69dbda8d6cef9a732b3");
    ("split.d10.s9",
     "87993773609f70b8319fdc37fb93d28ffe12e2351688196894c9e93d3ecb4f6b");
    ("idpf.d6",
     "7efc45e1c8e0dc0a19657b3ba2a2f872bb6b42661e71d2145a6987955162f7f3c4f56a4615851b862af17ccdd4f8ef29b41609fd6a6f27c4b5648c60e124a7b2");
    ("server.d6.b48.answer",
     "e8386647aad9d519ce9aade8b49c572aa130350836cb7fcc3325b1099ce31572");
    ("server.d6.b48.batch5",
     "c0b99122c7bdac2ad01c464523cbeb91c08dd8a4a444228b397c380f4562ce87");
    ("server.d6.b48.batch1",
     "0196e18f898f848cfeaee3a9dc66afcc0b72e54ffc4af8676b4f4dec9e9390f7");
    ("server.d10.b256.answer",
     "73633c6155b7be2df89d77b0ea4e56ec80026a16518bc7292ef066434728da0e");
    ("server.d10.b256.batch5",
     "ce5f8096ea3d964802a220d47ad8f1eecf8c89ae7cf25b7d6699909c510becfd");
    ("server.d10.b256.batch1",
     "48b71378712f7d166f2151978f08241c12022ef39af87534d861c3cd29b162de");
    ("server.d9.b4096.answer",
     "557c8914151fa0bbb2e1e38ec812a39b302a94d1218e7be544445611564bc95c");
    ("server.d9.b4096.batch5",
     "275d10540b56200466b7d13cb9f4273870966f3093342385dfe3c5c690eff9da");
    ("server.d9.b4096.batch1",
     "7bccf01a0baf593cb203d66a45438b7cc23a072a7b47fe2279722ff302eee30d");
    ("drbg.stream",
     "a9f2ced0a3582e2bd4d7db1fe38a88eac10815c92bf905221e2b70452943ba22800dfd21e88afba7a40f966cf15c2dc14ef13add1ce7e86a4608d84fd59e46682118b913aabb7704aba883907c141ea3a9dff31956bc20b6814b75024c87a76e85a128d46b56e2a12f98ee69957a4cfb1bcf66225d2d2778507485edaf184120f51862d2");
    ("chacha.encrypt",
     "69c8fde135df153aee09b10c88c0536fde0f8598adedfed837d542ba59200222");
    ("chacha.block.r8",
     "8af65bced016e9883ce7cfb328aeb3a55dc22261d44f6ce3c8b91d56a75882543d788b4065798568808f675fcf211bb0c8d8fcf8b6e2d5ac0d33d492d02a2a56");
    ("chacha.block.r12",
     "703438d4cdfb4ef7fa21f4f3b416e963f5d77339a6a5679ea445dd9a887384f13d3506210ade4263cc2e54d2f1347a1e61e99077eece96cd752da2aad7808a24");
    ("chacha.block.r20",
     "3bf7aff9a118593cc596b8b58e0ccb8d6059a147e1e2bfcc10e45bfd93c8d13c5b62b828520309e1c12a2a2cda26edcc79c0526ad2d379875c517e5108404af7");
    ("chacha.keystream.r8.wrap",
     "f8f9107b1f2ef896ab3301eef90e72bce44ecffb6b0f6c1ae2c5f072f0780c56");
    ("chacha.keystream.r8.lens",
     "74ff80c606650e5d9e03e656aaff544e15e40a0dcc3e64e5fde46b519aa39bb5");
    ("chacha.keystream.r12.wrap",
     "56095c84a71ddfe6d6bb4a2e9f5264e2bdb31abc740e55e728fb06e7fffe7ea7");
    ("chacha.keystream.r12.lens",
     "4b3828312af115114bf6592256ab3c45dbfcc4ebccd7d32c04eec4149a0b926d");
    ("chacha.keystream.r20.wrap",
     "25d0ae8516b3c73f99911c13a3b41582a9f5da1bb4961d83e5952a141ecfc4a6");
    ("chacha.keystream.r20.lens",
     "02e3362d083141f3ba40ae2977c829be5f6d98cf88342d14ee4994f725805343");
    ("poly1305.lens",
     "99aa2cf1c3f93ade6323e66b62519d853a662e042cc73ff6d1f202c5a2a8187e");
    ("poly1305.ff",
     "a08f9e8a325727945100b5d399f4646f863c5fe822cdb8f2240bde43d31b0b24");
    ("aead.seal.lens",
     "463b928bfb3a1119a824a9bda327fab3b8b381bbef831fb7ae6400371bc2942e");
    ("x25519.random",
     "262288cac87e6d948f9e282f8a68eba065298b93e7a34c0adf92518d6b3dc76f");
    ("x25519.high",
     "df880cb564ff606358d0b3086b309634fc94d0edeb6e2fae16d69bc722d1ae7c");
    ("x25519.top-bit",
     "6a8cdfae96a16cdac71e204f0325caaa3e7ac7941f621bb41a13227b70c3d263");
    ("x25519.p-plus-1",
     "0000000000000000000000000000000000000000000000000000000000000000");
  ]

(* ---------------- AES known answers ---------------- *)

let encrypt_on build key pt =
  let dst = Bytes.create 16 in
  Lw_crypto.Aes128.encrypt_blocks_on ~build key ~src:(Bytes.of_string pt) ~src_pos:0 ~dst ~dst_pos:0
    ~blocks:1;
  Bytes.to_string dst

let test_fips197_every_build () =
  Alcotest.(check bool) "bitsliced always runs" true (List.mem "bitsliced" aes_builds);
  Alcotest.(check string) "the first build runs" (Lw_crypto.Aes128.build ()) (List.hd aes_builds);
  let c1 = Lw_crypto.Aes128.expand_key (hex "000102030405060708090a0b0c0d0e0f") in
  let sp = Lw_crypto.Aes128.expand_key (hex "2b7e151628aed2a6abf7158809cf4f3c") in
  each_build (fun build ->
      (* FIPS-197 Appendix C.1 and SP 800-38A F.1.1 *)
      Alcotest.(check string) (build ^ " C.1") "69c4e0d86a7b0430d8cdb78070b4c55a"
        (to_hex (encrypt_on build c1 (hex "00112233445566778899aabbccddeeff")));
      Alcotest.(check string) (build ^ " F.1.1 block 1") "3ad77bb40d7a3660a89ecaf32466ef97"
        (to_hex (encrypt_on build sp (hex "6bc1bee22e409f96e93d7e117393172a")));
      Alcotest.(check string) (build ^ " F.1.1 block 4") "7b0c785e27e8ad3f8223207104725dd4"
        (to_hex (encrypt_on build sp (hex "f69f2445df4f9b17ad2b417be66c3710"))))

(* Every count of blocks from 1 to 33 (so every tail length of AES-NI's
   8-block and the bitsliced build's 4-block groups), each build against
   the first. *)
let test_blocks_agree_across_builds () =
  let key = Lw_crypto.Aes128.expand_key (String.sub (Lw_crypto.Sha256.digest "blocks") 0 16) in
  let rng = Lw_util.Det_rng.of_string_seed "aes-blocks" in
  for n = 1 to 33 do
    let src = Bytes.init (16 * n + 5) (fun _ -> Char.chr (Lw_util.Det_rng.int rng 256)) in
    let on build =
      let dst = Bytes.make (16 * n + 3) '\x00' in
      Lw_crypto.Aes128.encrypt_blocks_on ~build key ~src ~src_pos:5 ~dst ~dst_pos:3 ~blocks:n;
      Bytes.to_string dst
    in
    let want = on (Lw_crypto.Aes128.build ()) in
    let one_by_one =
      String.concat ""
        (List.init n (fun i ->
             Lw_crypto.Aes128.encrypt_block key (Bytes.sub_string src (5 + (16 * i)) 16)))
    in
    Alcotest.(check string) (Printf.sprintf "n=%d block by block" n) one_by_one
      (String.sub want 3 (16 * n));
    each_build (fun build ->
        Alcotest.(check string) (Printf.sprintf "%s n=%d" build n) want (on build))
  done

(* MMO known answers: the terminal tweak on the zero seed, recorded from
   the T-table AES, and the MMO identity over the C.1 answer. *)
let test_mmo_every_build () =
  let zero = Bytes.make 16 '\x00' in
  let c1 = Lw_crypto.Aes128.expand_key (hex "000102030405060708090a0b0c0d0e0f") in
  each_build (fun build ->
      let dst = Bytes.create 16 in
      Lw_crypto.Aes128.mmo_blocks_on ~build Lw_crypto.Aes128.mmo_fixed_key ~tweak:3 ~src:zero
        ~src_pos:0 ~dst ~dst_pos:0 ~blocks:1;
      Alcotest.(check string) (build ^ " mmo tweak 3") "b43c76c9048d210921300353b89158cf"
        (to_hex (Bytes.to_string dst));
      let pt = hex "00112233445566778899aabbccddeeff" in
      (* tweak 0 leaves the input alone: mmo = AES(pt) xor pt *)
      Lw_crypto.Aes128.mmo_blocks_on ~build c1 ~tweak:0 ~src:(Bytes.of_string pt) ~src_pos:0 ~dst
        ~dst_pos:0 ~blocks:1;
      Alcotest.(check string) (build ^ " mmo over C.1")
        (to_hex (Lw_util.Xorbuf.xor pt (hex "69c4e0d86a7b0430d8cdb78070b4c55a")))
        (to_hex (Bytes.to_string dst)))

(* ---------------- batched tree steps vs the per-node reference ---------------- *)

let key = Lw_crypto.Aes128.mmo_fixed_key

let mmo tweak seed = Lw_crypto.Aes128.mmo_hash key ~tweak seed

(* One parent, node by node: raw children, bits taken and cleared, then
   the correction under the parent's bit. *)
let reference_level seed t cw cw_bits =
  List.map
    (fun (tweak, side) ->
      let raw = Bytes.of_string (mmo tweak seed) in
      let bit = Char.code (Bytes.get raw 15) land 1 in
      Bytes.set raw 15 (Char.chr (Char.code (Bytes.get raw 15) land 0xfe));
      let raw = Bytes.to_string raw in
      let child = if t = 1 then Lw_util.Xorbuf.xor raw cw else raw in
      let bit = if t = 1 then bit lxor ((cw_bits lsr side) land 1) else bit in
      (child, bit))
    [ (1, 0); (2, 1) ]

let random_bytes rng n = String.init n (fun _ -> Char.chr (Lw_util.Det_rng.int rng 256))

let test_level_matches_reference () =
  let rng = Lw_util.Det_rng.of_string_seed "level" in
  for n = 1 to 33 do
    let src = Bytes.of_string (random_bytes rng (16 * n + 16)) in
    let ts = Bytes.init (n + 1) (fun _ -> Char.chr (Lw_util.Det_rng.int rng 2)) in
    let cw = Bytes.of_string (random_bytes rng 20) in
    let cw_bits = Lw_util.Det_rng.int rng 4 in
    let want =
      List.concat
        (List.init n (fun i ->
             reference_level (Bytes.sub_string src (16 + (16 * i)) 16)
               (Char.code (Bytes.get ts (1 + i)))
               (Bytes.sub_string cw 4 16) cw_bits))
    in
    each_build (fun build ->
        let dst = Bytes.create (32 * n) and t_out = Bytes.create (2 * n) in
        Lw_crypto.Aes128.mmo_level_on ~build key ~src ~src_pos:16 ~ts ~ts_pos:1 ~n ~cw ~cw_pos:4
          ~cw_bits ~dst ~t_out;
        List.iteri
          (fun c (child, bit) ->
            let what = Printf.sprintf "%s n=%d child %d" build n c in
            Alcotest.(check string) what (to_hex child) (to_hex (Bytes.sub_string dst (16 * c) 16));
            Alcotest.(check int) (what ^ " bit") bit (Char.code (Bytes.get t_out c)))
          want)
  done

let test_leaves_match_reference () =
  let rng = Lw_util.Det_rng.of_string_seed "leaves" in
  for n = 1 to 33 do
    let src = Bytes.of_string (random_bytes rng (16 * n)) in
    let ts = Bytes.init n (fun _ -> Char.chr (Lw_util.Det_rng.int rng 2)) in
    let cw = random_bytes rng 16 in
    let count = 1 lsl Lw_util.Det_rng.int rng 8 in
    let from = count * Lw_util.Det_rng.int rng (128 / count) in
    let want =
      String.concat ""
        (List.init n (fun i ->
             let block = mmo 3 (Bytes.sub_string src (16 * i) 16) in
             let block = if Bytes.get ts i = '\001' then Lw_util.Xorbuf.xor block cw else block in
             String.init count (fun j ->
                 let b = from + j in
                 Char.chr ((Char.code block.[b lsr 3] lsr (b land 7)) land 1))))
    in
    each_build (fun build ->
        let dst = Bytes.make ((n * count) + 7) '\x09' in
        Lw_crypto.Aes128.mmo_leaves_on ~build key ~src ~src_pos:0 ~ts ~ts_pos:0 ~n ~cw ~from ~count
          ~dst ~dst_pos:7;
        Alcotest.(check string)
          (Printf.sprintf "%s n=%d bits %d+%d" build n from count)
          want
          (Bytes.sub_string dst 7 (n * count)))
  done

let test_batch_range_checks () =
  let src = Bytes.create 32 and ts = Bytes.create 2 and cw = Bytes.create 16 in
  let bad = Invalid_argument "Aes128.mmo_level: range out of bounds" in
  Alcotest.check_raises "n past src" bad (fun () ->
      Lw_crypto.Aes128.mmo_level key ~src ~src_pos:0 ~ts ~ts_pos:0 ~n:3 ~cw ~cw_pos:0 ~cw_bits:0
        ~dst:(Bytes.create 96) ~t_out:(Bytes.create 6));
  Alcotest.check_raises "t_out too short"
    (Invalid_argument "Aes128.mmo_level(t_out): range out of bounds") (fun () ->
      Lw_crypto.Aes128.mmo_level key ~src ~src_pos:0 ~ts ~ts_pos:0 ~n:2 ~cw ~cw_pos:0 ~cw_bits:0
        ~dst:(Bytes.create 64) ~t_out:(Bytes.create 3));
  Alcotest.check_raises "leaf bits past 128"
    (Invalid_argument "Aes128.mmo_leaves(bits): range out of bounds") (fun () ->
      Lw_crypto.Aes128.mmo_leaves key ~src ~src_pos:0 ~ts ~ts_pos:0 ~n:1 ~cw:(String.make 16 'c')
        ~from:64 ~count:128 ~dst:(Bytes.create 128) ~dst_pos:0);
  Alcotest.check_raises "unknown build" (Invalid_argument "Aes128: build not runnable on this CPU")
    (fun () ->
      Lw_crypto.Aes128.encrypt_blocks_on ~build:"t-table" key ~src ~src_pos:0 ~dst:(Bytes.create 16)
        ~dst_pos:0 ~blocks:1)

(* ---------------- golden vectors ---------------- *)

let test_golden () =
  let got = Golden_vectors.all () in
  Alcotest.(check (list string)) "same vector names" (List.map fst golden) (List.map fst got);
  List.iter2 (fun (name, want) (_, v) -> Alcotest.(check string) name want v) golden got

(* Every ChaCha20 build the host runs gives the recorded keystreams. *)
let test_golden_chacha_builds () =
  List.iter
    (fun build ->
      List.iter
        (fun (name, v) -> Alcotest.(check string) (build ^ " " ^ name) (List.assoc name golden) v)
        (Golden_vectors.keystream_vectors ~build))
    (Lw_crypto.Chacha20.builds ())

(* Key generation on every AES build: both parties' roots, correction
   words and bits, terminal seeds and leaf word byte for byte against
   the first build, for every domain width and both key kinds. *)
let test_gen_every_build () =
  let rng = Lw_util.Det_rng.of_string_seed "gen-builds" in
  for d = 1 to 30 do
    List.iter
      (fun term ->
        let levels = max 0 (d - term) in
        let seeds = Bytes.of_string (random_bytes rng 32) in
        let alpha = Lw_util.Det_rng.int rng (1 lsl d) in
        let alpha_lo = alpha land ((1 lsl term) - 1) in
        let on build =
          let seeds = Bytes.copy seeds in
          let root0 = Bytes.create 16 and root1 = Bytes.create 16 and leaf = Bytes.create 16 in
          let cw_seeds = Bytes.create (16 * levels) and cw_bits = Bytes.create levels in
          Lw_crypto.Aes128.mmo_gen_on ~build key ~seeds ~alpha ~domain_bits:d ~levels ~alpha_lo
            ~root0 ~root1 ~cw_seeds ~cw_bits ~leaf;
          String.concat "|" (List.map Bytes.to_string [ seeds; root0; root1; cw_seeds; cw_bits; leaf ])
        in
        let want = on (Lw_crypto.Aes128.build ()) in
        each_build (fun build ->
            Alcotest.(check string) (Printf.sprintf "%s d=%d term=%d" build d term) (to_hex want)
              (to_hex (on build))))
      [ 0; min 7 d ]
  done

(* ---------------- entropy ---------------- *)

let test_drbg_fails_closed () =
  let unavailable = Lw_crypto.Drbg.No_entropy "entropy source failed: denied" in
  Alcotest.check_raises "unreadable source" unavailable (fun () ->
      ignore (Lw_crypto.Drbg.system ~source:(fun () -> raise (Sys_error "denied")) ()));
  Alcotest.check_raises "short read"
    (Lw_crypto.Drbg.No_entropy "entropy source returned 5 of 32 bytes") (fun () ->
      ignore (Lw_crypto.Drbg.system ~source:(fun () -> "short") ()));
  Alcotest.check_raises "end of file"
    (Lw_crypto.Drbg.No_entropy "entropy source failed: end of file") (fun () ->
      ignore (Lw_crypto.Drbg.system ~source:(fun () -> raise End_of_file) ()));
  let fixed () = String.make 32 'e' in
  Alcotest.(check string) "a good source seeds the generator"
    (Lw_crypto.Drbg.generate (Lw_crypto.Drbg.create ~seed:(fixed ())) 16)
    (Lw_crypto.Drbg.generate (Lw_crypto.Drbg.system ~source:fixed ()) 16);
  Alcotest.(check int) "the OS source works here" 16
    (String.length (Lw_crypto.Drbg.generate (Lw_crypto.Drbg.system ()) 16))

let () =
  Alcotest.run "prg"
    [
      ( "aes",
        [
          Alcotest.test_case "FIPS-197 on every build" `Quick test_fips197_every_build;
          Alcotest.test_case "block counts 1..33 agree" `Quick test_blocks_agree_across_builds;
          Alcotest.test_case "MMO on every build" `Quick test_mmo_every_build;
        ] );
      ( "tree steps",
        [
          Alcotest.test_case "level = per-node reference" `Quick test_level_matches_reference;
          Alcotest.test_case "leaves = per-node reference" `Quick test_leaves_match_reference;
          Alcotest.test_case "range checks" `Quick test_batch_range_checks;
        ] );
      ( "golden",
        [
          Alcotest.test_case "byte identity" `Quick test_golden;
          Alcotest.test_case "keystreams on every ChaCha20 build" `Quick test_golden_chacha_builds;
          Alcotest.test_case "key generation on every AES build" `Quick test_gen_every_build;
        ] );
      ("drbg", [ Alcotest.test_case "fails closed" `Quick test_drbg_fails_closed ]);
    ]
