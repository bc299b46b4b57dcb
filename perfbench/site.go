package main

import (
	"fmt"
	"math/rand"
	"sort"

	"superglue/internal/webserver"
)

// siteFor generates the web workloads' site from the seed: the only input
// the server receives. The site has the shape of webserver.DefaultFiles,
// the site every other caller of webserver.Run serves (cmd/webbench, the
// Fig. 7 experiments, the listener): the same number of files with the same
// sizes. The seed picks the file names, which set the order of the
// server's request stream, and the bytes of each file. So every seed has
// the same size mix in a different layout, and per-request costs compare
// across seeds.
func siteFor(seed int64) map[string][]byte {
	var sizes []int
	for _, body := range webserver.DefaultFiles() {
		sizes = append(sizes, len(body))
	}
	sort.Ints(sizes)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })

	dirs := []string{"", "/docs", "/blog"}
	files := make(map[string][]byte, len(sizes))
	for _, size := range sizes {
		var name string
		for name == "" || files[name] != nil {
			name = fmt.Sprintf("%s/%08x.html", dirs[rng.Intn(len(dirs))], rng.Uint32())
		}
		body := make([]byte, size)
		for i := range body {
			body[i] = 'a' + byte(rng.Intn(26))
		}
		files[name] = body
	}
	return files
}
