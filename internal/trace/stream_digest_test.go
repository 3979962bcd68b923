package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// streamDigest returns the SHA-256 of every field of the first n
// instructions prof's generator emits, each encoded little-endian at
// its declared width.
func streamDigest(prof Profile, n int) string {
	g := NewGenerator(prof)
	h := sha256.New()
	var buf []byte
	for i := 0; i < n; i++ {
		in, _ := g.Next()
		buf = buf[:0]
		buf = binary.LittleEndian.AppendUint64(buf, in.PC)
		buf = append(buf, byte(in.Op), byte(in.Class))
		buf = binary.LittleEndian.AppendUint16(buf, uint16(in.Dest))
		buf = binary.LittleEndian.AppendUint16(buf, uint16(in.Src1))
		buf = binary.LittleEndian.AppendUint16(buf, uint16(in.Src2))
		buf = binary.LittleEndian.AppendUint64(buf, in.Result)
		buf = binary.LittleEndian.AppendUint64(buf, in.MemAddr)
		buf = append(buf, in.MemSize)
		buf = binary.LittleEndian.AppendUint64(buf, in.StoreVal)
		if in.Taken {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = binary.LittleEndian.AppendUint64(buf, in.Target)
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestStreamDigestsPinned pins the first 100k instructions of every
// suite workload, field by field. TestStatsDigestsPinned (package cpu)
// sees the stream only through a timing run's Stats; this pin catches
// any change to the stream itself. The digests were generated with the
// math/rand-backed generator, before its source was ported into this
// package; they must not be regenerated for a speed change.
func TestStreamDigestsPinned(t *testing.T) {
	const n = 100_000
	// -short (the race-detector run) checks every seventh workload.
	step := 1
	if testing.Short() {
		step = 7
	}
	suite := Suite()
	for i := 0; i < len(suite); i += step {
		p := suite[i]
		want, ok := streamDigests[p.Name]
		if !ok {
			t.Errorf("%s: no pinned stream digest", p.Name)
			continue
		}
		if got := streamDigest(p, n); got != want {
			t.Errorf("%s: stream digest %s, want %s", p.Name, got, want)
		}
	}
	if len(streamDigests) != SuiteSize {
		t.Errorf("%d pinned stream digests, want %d", len(streamDigests), SuiteSize)
	}
}

var streamDigests = map[string]string{
	"gzip":         "954b7035653e36d56dcdb3d962031100161079fc91c2aa742245804076ccb788",
	"vpr":          "79c854d33c84010c881f81ba6d2e930521b7b60c602bc3c4f55d4cf53ad70425",
	"gcc":          "20adbb6fbfebd3c695cad38775f72d92bcb21d76c296a10d08e8a71625563beb",
	"mcf":          "66403b3ef9ac8343045f0211d7914d5c612d2707d530c4bf12c5a6aa3fb5992a",
	"crafty":       "032f834b9e3c038fb168c6c6b911330c3927bb0514f6f41d0eb1a949b8ce005f",
	"parser":       "c4f460b7f79a7848388b791095beed2519b7b5e4a62592ac302bd6449e53195c",
	"eon":          "89c9e080a33ce9c4416a08a8cddc6d0abed5243e59f6a97af2836af1985f3ec7",
	"perlbmk":      "23ca586fc742fe34db995590bd905df95333525b86d2bf38ea0ada78c07dd23b",
	"gap":          "5aca74c384ee239d032a3ab3bb13127078caf60ce1f53724bf83fa5782f86273",
	"vortex":       "6314ef18479036f2dfe600ae47890537e7ec5fbcd30c3098f2f55c5447562d5a",
	"bzip2":        "4c3e35c4d2512d7001ed7c29898312f0bfe9f5a90ee932744c5295bb800b7255",
	"twolf":        "7274283fcc65dec87e55dcaf74d311b0884e78d6deb6e205f2784e3ddffac354",
	"wupwise":      "45b7672a730309c1761d4f00c2a4fa56b5fc8bd26a441bea82dcf8395f4b147a",
	"swim":         "42b3c1ff4df5afaef5cb211512f25fbe01073db085f1720529364f484ad06b23",
	"mgrid":        "4101b49498bd0a6eb1e010ee87cdb65ce7cbe60cd04032743b576d2af637c502",
	"applu":        "88d1de94f4916cf06a31a24d938823363fd5a1d318be13ce48d55801bfe38f68",
	"mesa":         "41d98447f0d4349a3e4b1f007340942efbaa5f8e4bf3291c542561a4b314c129",
	"galgel":       "0a0ba4532df3775bd70c1e1aa60ad33afe97028b9b1a52d2aee50ca2abe530b7",
	"art":          "245eddaf5fc58fabaf73627e351f1e372f11b2fa21c669e097334eaa686187ab",
	"equake":       "c087f74a660b1ae8e6bdcd38b0d8e3cd512bf287ffe73feb1a6ed434ab9c5bd3",
	"facerec":      "66b5a9f0018ad951b3a679fb45e13a3c1686b7dd071fc407adeac183a90c9c88",
	"ammp":         "4812398ed054bc9c28f3484eb139e4e1e5eede00b19a2c12d268640f71f73ff0",
	"lucas":        "5a46e378cd3f9b3b1a09a050cb0d15f16db5ca89e2e550a7105b0b229666678b",
	"fma3d":        "f3ee7170dff2b753a8b9c78214ed5de4cbd2d54b225716363544ca9f63af13cb",
	"sixtrack":     "5354ab5c9a31be84eecf1da748dbacac47bc330ea1c7a47bcda380b3062769dc",
	"apsi":         "6360c9412186ad0dfcd8bc5dd33ea6bf8cf0889e7dea81accb2d70c668705a17",
	"mpeg2enc":     "922c2802593fff4b6273985dc30f59cdbb0eda743821a1ef435ae4c4b7eb0530",
	"mpeg2dec":     "058245f82cb9883fdeb9a76a9d8f5cf0d23208f82f0108ef2aad49ea0ac5a64d",
	"jpegenc":      "332ba60ff79a484ac2bb9920302aeaa8fd998e537596ce559280f92529f84e78",
	"jpegdec":      "4ee04760ade4341a1ddea66a720cb9382b932dee19fb06a51caab32bbcaba138",
	"epic":         "e93ce65f6a79f34096fca89482fe47ed94eed02605115bc52a805d1cac2ec636",
	"unepic":       "493f9c9b668ed08273781d8f246772f37132b1c9d0ee58c81ea50f307238bab1",
	"gsmenc":       "31862151289dd06082f9dd004ca825f74ab2cd71e103e887147eaf044f2a4ef4",
	"gsmdec":       "bfadcc50aad058a902b564af2ab33867f6c8b44bb57a2c99fb7f9e1f1e2efa7f",
	"g721enc":      "5abe689f498b74aa9e7e02c1ce4f8bddc3e49ec068a6eda4e3c6b27246bd9591",
	"g721dec":      "3b59608c7825a32e020de74082e38992d509baac380129af6f434d99f2f93654",
	"pegwitenc":    "ee672fc2ba07b460cfc13e36b54c4354f92733e52b5749ec299ab87e7268395d",
	"pegwitdec":    "f48daf07bbf1394ed489db5be6c1c77d0343c3c3817db9575dd2e98595841f62",
	"adpcmenc":     "5d56a9efffae612f209690b0ada5057b8ec9193e322f187bfcceb974c28572ed",
	"adpcmdec":     "5175be645ec22dbc2da21b209bc06d2f652b21264e64fb5bc92879836120f214",
	"susan_s":      "0c33f4e9d847976fcb71de4b6a43d4d7ff0fd863879b281cc09a866db4860df5",
	"susan_e":      "1c1fc78f2c760c080a6e59ad83f6aeb98ed8726bf2d2c9b745b26b0c9f5d7dd1",
	"susan_c":      "f6f7a46cf8311a6ab87077c06a7f5a609a7c51d4cef0a93424acd93227906776",
	"patricia":     "d8cc276e11f51be553adce454867f6d5072111f66036397cb81361adfecd324e",
	"dijkstra":     "8ddaa8743a5b01097fee5db5414a7da1718fe4a9523e4009432b84022b19ff3d",
	"qsort":        "b432e1742d91dd603018b67bb3d1895ba1f4c9790a422edfd0b54ff5f9257dd7",
	"bitcount":     "ec8bc63a61c5b45b3ecb79ab7e23911a2a0e95c9a4fb63045f9df9a76d79a3e0",
	"basicmath":    "780e7f1d1f667208b55dde8c4d0d2c1bb894b2592b18c0a7a0fd2633a1cc3e5c",
	"stringsearch": "c81711a08388d90de5846c298c06f1947b778cd10e8814ffc5277f830f20240f",
	"sha":          "998bb0b7e982c55c3ed20b56aa92c873626da4c4eac99f83a5b8e39095ca6808",
	"crc32":        "18fbd1eb92608f4df30021e5409838a7129601e151b8a44eed703c8340bc4837",
	"fft":          "1fbbeb677b412a4c6f828ef5e69b22a76ab0c0e54244da2be5b2a1043448970c",
	"ifft":         "8d9330ff6ffd317fbea8a4440f1afa4eca30648842edd1d9a96f9e42385a6636",
	"blowfish_e":   "525a36428d9ae7bdd35ec8cac444e1defa94df845c6cb611594284dfdd0dbccc",
	"blowfish_d":   "6a770c5e38b150bf188b9303123491205055f26aac0930aeb563e5432babc191",
	"rijndael_e":   "ed5c1244bf6e4f8f39852d5b20e4728ce924cc4e19a843737a7030e79e00f185",
	"rijndael_d":   "09115cb3539bdcc7beff8d224470d680a45a3c73f9f01de30b0967261271cd74",
	"jpeg_mi":      "5119e1193b051365130ef608fd8be36a7dc37c0a45bf0925438e431c575c2256",
	"lame":         "1f4e38844c6a8bdf03a4213e021f465ede126b64b51a0ce42688a62346afef72",
	"gsm_mi":       "4dede606937d5bf832df5afdcfda2adcb7b83cc0a40e1556593a8864c55bb4be",
	"anagram":      "6f6b4a15b82083aec03448d06a9d6a1aea307a75a89fe3211932b0cce1f81c92",
	"bc":           "3d768bc67f9516277556a2fc7369063ad2e9eb70d206e0bd07c81657f30ed0d2",
	"ft":           "7c1d510c0b35d43b7737fecc8b3dd574196caf165cbdffc1d39782ae6dc4fd70",
	"ks":           "5ef6dd6d56e7cabd35d2af9296ac92ab6149ccc8e1da07661db8b46fe687f490",
	"yacr2":        "9c6a96fb3b7086f7e6e194b070cb7d4e1508d9ce7785e7fbdf7e8a133ecb9440",
	"tsp":          "2651ac32755f7d419da1a5e247bad7cffcbf038d32f15da17bb9260178d5b67c",
	"treeadd":      "2291580e57df07bdd972fc74fa22eb34cceaf79ef9ca0867c382855a6c18eea8",
	"mst":          "24dd8583f379757b65e51b8b11ca1ca7e68a11b7d667b1875e085f60c2567e7b",
	"perimeter":    "e5c5357ecd7f3971bacd26db0bc64a43d9292729674e08e7987e685981ddf973",
	"health":       "7e09185ba3958208ed012452e4a469a30f4b0e1950722b5c8207b2f709d1ab81",
	"doom":         "88157c317ea097621cf9747341de4af534a2bd1d90828117a73d567ff6d40bea",
	"quake":        "2f86c31b3d50ceb77c43411852902194cbe47ceba088047c9b31aa34c3c4f5f9",
	"glquake":      "7f0fde4e3e8355dbf02aa1613a4d383e77016482bf155a3729b1c2161272284a",
	"raytrace":     "3ea38bad144ebd6afbf4eb463984a51a36e135703a3945374afd4ffbef9f7d55",
	"povray":       "9310e9a9c7965f1abd170985a9d33fa28a93f2b375a5e3533c0b4f02ef3fb383",
	"mpegplay":     "1117082e5648971e484f760dc7abe20c10986031b05841d945fa109234e89b9d",
	"aviplay":      "0f5090a3a39f189341eb29a2ba9444ca3dccab1021ced79b54999210eeef0c33",
	"gears":        "ed1dc5007d8be223b876cae60d581b3d7f8934d35c31451c5680f65670990833",
	"osdemo":       "a10f6fd15129fa19eb3d239f7503e9bc38236092f799a27e4fcbc0cec7e89814",
	"texgen":       "d9541b0c171fb681044da6ee17d5a9728884ad50655109b54f34d38293914180",
	"anim":         "a03935db64e0cd4c3d9030ab6a306fb8f7039bb83ea4522b7e6e42b4e4d327ba",
	"morph3d":      "8ab1527bf9303c02da658558f70fc97b1f42864cbeafcab6a40a3965c5d81e34",
	"blastn":       "f8b628ec5dcb810d458cd1299c7a5b1aa8b94bb4df935bc770e228f04d1cd052",
	"blastp":       "c88af00219118dc3ab82c5990c7186bd60687793a655376e972ad26e0d67671b",
	"clustalw":     "5bfd4d78b6df3c739e2184f59a79134b8c86032d9c2e4f3caa35d584c00ea745",
	"hmmer":        "8072bfdb7625b2dcdfad82817388212e2596373be34068427157de19079eb644",
	"hmmpfam":      "e65f978d565c62a67bbe155c3c9342b64dfef849212044d5d24d1881c1540759",
	"fasta_dna":    "5b8e0b0b04ad1279c1bd9f10ab9e6ff9320c7c4219301b66584e908764e48431",
	"fasta_prot":   "93dec6c4c8dc6d2916e819e2181254f4f4e525655810f9c5020b05d3ecb25b29",
	"mummer":       "f2b14d9143a5c3d126e978428578d4864f4100be45b4827a3033f5b2e8e4be8a",
	"tigr":         "1b1867463e195ae4e253addb9699cc90778e9ac51f96891a98c3272331af34eb",
	"phylip":       "06ee33b922e86211c12422d198d0992d0f023650c4efd118c7fe84a918b4603d",
	"grappa":       "338316276f4af0273547f979ecfd4415dea48fa23985d2ed762fefd09b9d4e6a",
	"ce":           "c368d3ac49dbd3bf60ead1d357c1357bde8dafa02d2cca5867dc0807bf65fbfd",
	"glimmer":      "537c58e11c9800db464dea259ad9df586d00fb7cfbe8ea79b76ebe818e4e8e9d",
	"predator":     "b656881c0d22750a91cb3bda829da2388bbcc93b6781ca26278c9d6086074d25",
	"tcoffee":      "c235072cefd53a639f46e24f9fa85712ac55dd20fb00ef72ecf90da5c6cce78a",
	"dnapenny":     "881bf84dd69dffecd72e7a1ede341214fa937da0b5486af80bd2650cfc5efe08",
	"promlk":       "28dfa89fc6c93494ea7db7dd0f27fc224925facc827be30bae9fe838ba2e3afb",
	"seqgen":       "b2ba1ed7916e00640ed17a3f7f649b628a5915cbe3bd6e2c59609bba3b4df8c4",
	"clustalw_smp": "786411b46c6f619a4fc03d159f096b6677dc6d66e84e2687a95d421be8150734",
	"blat":         "cc0132a2a1ab861bed7234d4887f79bf88b411b106c3fdb9504e05bfc4b064a7",
	"sim4":         "8bc8f3d8df9f939239da568dd113f02a1d0df7f59b132b5e1d9f84e23e818e55",
	"spsearch":     "e1a86ae5e8e3665d7cf736819663597bece3a13a3f153aa5d987098e784ae729",
	"ssearch":      "d08fda5a336cf9fee47b98046b942c088f6a24c9472d03ae0f955136aada3649",
	"wise2":        "6992842092e385c48cd7a8ecd1575b3a52922d6737dabb3ff13ee1045e016fcb",
}
