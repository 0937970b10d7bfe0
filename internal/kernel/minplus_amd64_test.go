//go:build amd64 && !purego && !race

package kernel

import (
	"os"
	"strings"
	"testing"
)

// TestBodySelected pins what init chose on this machine, so a detection
// bug that silently falls back to the scalar body (and turns the
// differential tests into scalar-against-scalar) cannot pass CI.
func TestBodySelected(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no independent view of the CPU's features: %v", err)
	}
	has := false
	for _, line := range strings.Split(string(info), "\n") {
		if strings.HasPrefix(line, "flags") {
			has = strings.Contains(line+" ", " avx2 ")
			break
		}
	}
	if useAVX2 != has {
		t.Fatalf("init selected AVX2 body = %v, /proc/cpuinfo says avx2 = %v", useAVX2, has)
	}
	t.Logf("AVX2 body selected: %v", useAVX2)
}
