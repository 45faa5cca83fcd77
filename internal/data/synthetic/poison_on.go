//go:build poolpoison

package synthetic

func init() { poisonRelease = true }
