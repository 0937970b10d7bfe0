// Command aacluster runs the anytime-anywhere engine as N real OS
// processes, one rank per process, over the TCP transport. Its flags and
// modes are documented on rank.Main, which is the whole command.
package main

import (
	"os"

	"anytime/internal/rank"
)

func main() {
	os.Exit(rank.Main(os.Args[1:], os.Stdout, os.Stderr))
}
